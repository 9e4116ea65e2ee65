// Package chaos is a deterministic, seedable fault-injection harness for
// the λFS stack. It arms faults at every substrate boundary — faas
// (instance kill mid-invocation, cold-start storms, pool exhaustion), ndb
// (per-shard stalls, crash/recover windows, transaction aborts), rpc
// (dropped and delayed calls), and coordinator (lease expiry)
// — and checks global file-system invariants against a trivially-correct
// in-memory oracle after every step. Episodes are reproducible from a
// single seed: the op sequence and fault schedule are both derived from
// it, so any violation replays byte-for-byte.
package chaos

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
)

// Oracle is a trivially-correct in-memory reference file system: after any
// sequence of operations, λFS (cache + coherence + store) must agree with
// it on every path's existence, kind, and directory contents. It was
// promoted out of internal/core's model test so the chaos harness, the
// model tests, and the bench experiments share one source of truth.
//
// An Oracle is not safe for concurrent use; give each logical client its
// own (they operate on disjoint subtrees) or serialize access.
type Oracle struct {
	nodes map[string]bool // path -> whether it is a directory
}

// NewOracle returns an oracle holding only the root directory.
func NewOracle() *Oracle { return &Oracle{nodes: map[string]bool{"/": true}} }

// IsDir reports whether p is a directory in the oracle.
func (m *Oracle) IsDir(p string) bool { return m.nodes[p] }

// IsFile reports whether p is a file in the oracle.
func (m *Oracle) IsFile(p string) bool { dir, ok := m.nodes[p]; return ok && !dir }

// Has reports whether p exists at all.
func (m *Oracle) Has(p string) bool { _, ok := m.nodes[p]; return ok }

// Len returns the number of nodes, including the root.
func (m *Oracle) Len() int { return len(m.nodes) }

// Create adds a file at p with HDFS create semantics.
func (m *Oracle) Create(p string) error {
	if m.Has(p) {
		return namespace.ErrExists
	}
	if err := m.parentErr(p); err != nil {
		return err
	}
	m.nodes[p] = false
	return nil
}

// parentErr is why p cannot be created: its parent is a file or missing.
func (m *Oracle) parentErr(p string) error {
	switch parent := namespace.ParentPath(p); {
	case m.IsFile(parent):
		return namespace.ErrNotDir
	case !m.IsDir(parent):
		return namespace.ErrNotFound
	}
	return nil
}

// Mkdirs creates the directory chain down to p (mkdir -p semantics).
func (m *Oracle) Mkdirs(p string) error {
	if m.IsFile(p) {
		return namespace.ErrExists
	}
	// Any file on the ancestor chain makes this invalid.
	if slices.ContainsFunc(namespace.Ancestors(p), m.IsFile) {
		return namespace.ErrNotDir
	}
	cur := "/"
	for _, c := range namespace.SplitPath(p) {
		cur = namespace.JoinPath(cur, c)
		m.nodes[cur] = true
	}
	return nil
}

// Delete removes the file or (recursively) the directory at p.
func (m *Oracle) Delete(p string) error {
	switch {
	case p == "/":
		return namespace.ErrPermission
	case !m.Has(p):
		return namespace.ErrNotFound
	}
	for k := range m.nodes {
		if namespace.HasPathPrefix(k, p) {
			delete(m.nodes, k)
		}
	}
	return nil
}

// Mv renames src to dst, moving a whole subtree when src is a directory.
func (m *Oracle) Mv(src, dst string) error {
	switch {
	case src == "/" || dst == "/":
		return namespace.ErrPermission
	case namespace.HasPathPrefix(dst, src):
		return namespace.ErrMvIntoSelf
	case !m.Has(src):
		return namespace.ErrNotFound
	case m.Has(dst):
		return namespace.ErrExists
	}
	if err := m.parentErr(dst); err != nil {
		return err
	}
	moved := map[string]bool{}
	for k, dir := range m.nodes {
		if namespace.HasPathPrefix(k, src) {
			moved[dst+strings.TrimPrefix(k, src)] = dir
			delete(m.nodes, k)
		}
	}
	maps.Copy(m.nodes, moved)
	return nil
}

// List returns the sorted basenames under directory p (or the file's own
// basename, mirroring HDFS ls-on-file).
func (m *Oracle) List(p string) ([]string, error) {
	if m.IsFile(p) {
		return []string{namespace.BaseName(p)}, nil
	}
	if !m.IsDir(p) {
		return nil, namespace.ErrNotFound
	}
	var out []string
	for k := range m.nodes {
		if k != p && namespace.ParentPath(k) == p {
			out = append(out, namespace.BaseName(k))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Apply mirrors a write operation onto the oracle; reads are no-ops.
func (m *Oracle) Apply(op namespace.OpType, path, dest string) error {
	switch op {
	case namespace.OpCreate:
		return m.Create(path)
	case namespace.OpMkdirs:
		return m.Mkdirs(path)
	case namespace.OpDelete:
		return m.Delete(path)
	case namespace.OpMv:
		return m.Mv(path, dest)
	}
	return nil
}

// Paths returns every path in the oracle, sorted.
func (m *Oracle) Paths() []string {
	out := make([]string, 0, len(m.nodes))
	for k := range m.nodes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// OracleFromStore rebuilds an oracle from the store's ground truth by
// walking the inode table from the root. The harness uses it to reconcile
// after a write failed with an injected fault: whether the transaction
// committed before the fault surfaced is the fault's business, but the
// store must still be structurally sound, and subsequent steps are judged
// against what actually persisted.
func OracleFromStore(db *ndb.DB) (*Oracle, error) {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return nil, err
	}
	byID := make(map[namespace.INodeID]*namespace.INode, len(nodes))
	for _, n := range nodes {
		byID[n.ID] = n
	}
	var pathOf func(n *namespace.INode) string
	pathOf = func(n *namespace.INode) string {
		if n.ID == namespace.RootID {
			return "/"
		}
		return namespace.JoinPath(pathOf(byID[n.ParentID]), n.Name)
	}
	m := NewOracle()
	for _, n := range nodes {
		if n.ID != namespace.RootID {
			m.nodes[pathOf(n)] = n.IsDir
		}
	}
	return m, nil
}
