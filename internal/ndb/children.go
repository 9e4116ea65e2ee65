package ndb

import (
	"slices"

	"lambdafs/internal/childindex"
	"lambdafs/internal/namespace"
)

// childList is one directory's children, each one's ID filed under its
// name (childindex.List). The store's lists allocate with make and give
// nothing back: a list lives as long as its directory.
type childList = childindex.List[namespace.INodeID]

// child returns the ID filed under (parent, name). Caller holds db.mu.
func (db *DB) child(parent namespace.INodeID, name string) (namespace.INodeID, bool) {
	return db.children[parent].Find(name)
}

// link files n under its parent: one sorted insert, or a new ID for a name
// already filed. The root is no one's child. A no-op while Recover replays
// (finishRecovery builds the lists once). Caller holds db.mu for writing.
func (db *DB) link(n *namespace.INode) {
	if db.children == nil || n.ID == namespace.RootID {
		return
	}
	db.children[n.ParentID] = db.children[n.ParentID].Insert(childindex.NewEntry(n.Name, n.ID), nil)
}

// unlink removes old's entry from its parent's list if the entry still
// names old. Caller holds db.mu for writing.
func (db *DB) unlink(old *namespace.INode) {
	if kids := db.children[old.ParentID]; len(kids) > 0 {
		db.children[old.ParentID] = kids.Remove(old.Name, old.ID, nil)
	}
}

// linkAll files every row of nodes but the root under its parent: each list
// it adds to is gathered into one slice, sorted once and cut into chunks,
// not grown by one sorted insert per row. Caller holds db.mu for writing,
// and no name of nodes is filed in its directory yet.
func (db *DB) linkAll(nodes []*namespace.INode) {
	adds := make(map[namespace.INodeID][]childindex.Entry[namespace.INodeID])
	for _, n := range nodes {
		if n.ID != namespace.RootID {
			adds[n.ParentID] = append(adds[n.ParentID], childindex.NewEntry(n.Name, n.ID))
		}
	}
	for parent, kids := range adds {
		for _, c := range db.children[parent] {
			kids = append(kids, c...)
		}
		slices.SortFunc(kids, childindex.Cmp[namespace.INodeID])
		db.children[parent] = childindex.Chunked(kids)
	}
}
