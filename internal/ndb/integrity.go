package ndb

import (
	"fmt"
	"sort"

	"lambdafs/internal/childindex"
	"lambdafs/internal/namespace"
)

// CheckIntegrity audits the store's structural invariants and returns a
// human-readable violation per defect found (empty = consistent). It is a
// test/diagnostic hook used by the chaos harness after every episode step:
//
//   - every child-list entry must point at an existing INode whose
//     (ParentID, Name) matches the slot it is filed under (no dangling or
//     misfiled child entries);
//   - every child list must be strictly sorted by name — no two entries
//     share a name — in chunks none over childindex.MaxChunk and none
//     empty but a list's only one, which its binary search relies on;
//   - every INode except the root must be reachable from the root through
//     child entries (no lost or orphaned inodes);
//   - every non-root INode's parent must exist and be a directory.
//
// The audit bypasses transactions and the latency model; it must not race
// with in-flight writers (call it at quiescence).
func (db *DB) CheckIntegrity() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()

	var bad []string
	if db.inodes[namespace.RootID] == nil {
		return []string{"root inode missing"}
	}

	// Child entries: chunk shape, order, dangling references and misfiled
	// slots.
	for parent, kids := range db.children {
		if db.inodes[parent] == nil {
			if n := kids.Len(); n > 0 {
				bad = append(bad, fmt.Sprintf("child list for missing inode %d holds %d entries", parent, n))
			}
			continue
		}
		var prev *childindex.Entry[namespace.INodeID]
		for _, c := range kids {
			if (len(c) == 0 && len(kids) > 1) || len(c) > childindex.MaxChunk {
				bad = append(bad, fmt.Sprintf("child list of inode %d holds a chunk of %d entries", parent, len(c)))
			}
			for i := range c {
				e := &c[i]
				if prev != nil && prev.Name >= e.Name {
					bad = append(bad, fmt.Sprintf("child list of inode %d out of order: %q before %q",
						parent, prev.Name, e.Name))
				}
				prev = e
				n := db.inodes[e.Val]
				if n == nil {
					bad = append(bad, fmt.Sprintf("dangling child entry %d/%q -> missing inode %d", parent, e.Name, e.Val))
				} else if n.ParentID != parent || n.Name != e.Name {
					bad = append(bad, fmt.Sprintf("misfiled child entry %d/%q -> inode %d (parent=%d name=%q)",
						parent, e.Name, e.Val, n.ParentID, n.Name))
				}
			}
		}
	}

	// Reachability from the root (orphan detection).
	reached := make(map[namespace.INodeID]bool, len(db.inodes))
	queue := []namespace.INodeID{namespace.RootID}
	reached[namespace.RootID] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range db.children[id] {
			for _, e := range c {
				if !reached[e.Val] && db.inodes[e.Val] != nil {
					reached[e.Val] = true
					queue = append(queue, e.Val)
				}
			}
		}
	}
	for id, n := range db.inodes {
		if reached[id] {
			continue
		}
		bad = append(bad, fmt.Sprintf("orphaned inode %d (name=%q parent=%d)", id, n.Name, n.ParentID))
	}

	// Parent pointers of reachable inodes.
	for id, n := range db.inodes {
		if id == namespace.RootID {
			continue
		}
		p := db.inodes[n.ParentID]
		if p == nil {
			bad = append(bad, fmt.Sprintf("inode %d (name=%q) has missing parent %d", id, n.Name, n.ParentID))
		} else if !p.IsDir {
			bad = append(bad, fmt.Sprintf("inode %d (name=%q) has non-directory parent %d", id, n.Name, n.ParentID))
		}
	}

	sort.Strings(bad)
	return bad
}
