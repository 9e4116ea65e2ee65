package chaos

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/store"
)

// Frozen witnesses the rule that a published INode is never written again
// (namespace.INode): it keeps a deep copy of every row it is shown — the
// store's table through CheckStore, what the caches hold through CheckCaches,
// any other rows through Check — and reports each row that no longer equals
// its copy. Nil checks nothing.
type Frozen map[*namespace.INode]*namespace.INode

// Check shows the witness rows, found where; it returns one line per row
// written since it was first shown.
func (f Frozen) Check(where string, rows []*namespace.INode) (bad []string) {
	for _, n := range rows {
		if was, seen := f[n]; !seen && f != nil {
			was = n.Clone()
			was.Blocks = namespace.CloneBlocks(n.Blocks) // a Clone shares them
			f[n] = was
		} else if seen && !reflect.DeepEqual(n, was) {
			bad = append(bad, fmt.Sprintf("%s: published row was written: %+v, first seen as %+v", where, *n, *was))
		}
	}
	return bad
}

// CheckStore audits the store-side invariants at quiescence:
//
//   - structural integrity (no lost/orphaned inodes, no dangling or
//     misfiled child entries — ndb's CheckIntegrity);
//   - no leaked row locks;
//   - no leaked subtree locks: every inode's SubtreeLockOwner is clear and
//     the subtree-operations registry is empty;
//   - no row frozen has seen before was written since.
func CheckStore(db *ndb.DB, frozen Frozen) []string {
	bad := db.CheckIntegrity()
	if n := db.HeldLocks(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d row locks leaked", n))
	}
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return append(bad, fmt.Sprintf("subtree walk failed: %v", err))
	}
	bad = append(bad, frozen.Check("store", nodes)...)
	for _, n := range nodes {
		if n.SubtreeLockOwner != "" {
			bad = append(bad, fmt.Sprintf("subtree lock leaked on inode %d (name=%q owner=%s)",
				n.ID, n.Name, n.SubtreeLockOwner))
		}
	}
	tx := db.Begin("chaos-audit")
	rows, err := tx.KVScan(store.TableSubtreeOps, "")
	tx.Abort()
	if err != nil {
		bad = append(bad, fmt.Sprintf("subtree_ops scan failed: %v", err))
	}
	for k, v := range rows {
		bad = append(bad, fmt.Sprintf("subtree_ops registry leaked entry %q -> %q", k, v))
	}
	sort.Strings(bad)
	return bad
}

// CheckOracle verifies that the store's namespace is exactly the oracle's:
// same paths, same kinds, same inode count. Must run at quiescence.
func CheckOracle(db *ndb.DB, m *Oracle) []string {
	var bad []string
	got, err := OracleFromStore(db)
	if err != nil {
		return []string{fmt.Sprintf("store walk failed: %v", err)}
	}
	for _, p := range m.Paths() {
		switch {
		case !got.Has(p):
			bad = append(bad, fmt.Sprintf("store lost %s", p))
		case got.IsDir(p) != m.IsDir(p):
			bad = append(bad, fmt.Sprintf("store kind mismatch at %s: dir=%v, oracle dir=%v",
				p, got.IsDir(p), m.IsDir(p)))
		}
	}
	for _, p := range got.Paths() {
		if !m.Has(p) {
			bad = append(bad, fmt.Sprintf("store holds unexpected %s", p))
		}
	}
	if n := db.INodeCount(); n != m.Len() {
		bad = append(bad, fmt.Sprintf("inode count %d, oracle expects %d", n, m.Len()))
	}
	return bad
}

// CheckCaches verifies client-cache coherence: for every probed path, any
// engine whose metadata cache holds an entry must agree with the oracle on
// existence and kind, and any engine that holds a directory
// listing-complete must list exactly the oracle's children for it. (Caches
// may hold fewer entries than the store — that is what a cache is — but
// never stale or phantom ones, nor a listing that claims to be whole and
// is not, once the coherence protocol has quiesced.) Every cached row met on
// the way is shown to frozen.
func CheckCaches(engines []*core.Engine, m *Oracle, probe map[string]bool, frozen Frozen) []string {
	var bad []string
	paths := make([]string, 0, len(probe))
	for p := range probe {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, e := range engines {
		c := e.Cache()
		for _, p := range paths {
			n, ok := c.Get(p)
			if !ok {
				continue
			}
			kids, complete := c.Listing(p)
			bad = append(bad, frozen.Check("cache of "+e.ID(), append(kids, n))...)
			if !m.Has(p) {
				bad = append(bad, fmt.Sprintf("cache of %s holds deleted path %s", e.ID(), p))
			} else if n.IsDir != m.IsDir(p) {
				bad = append(bad, fmt.Sprintf("cache of %s has %s as dir=%v, oracle dir=%v",
					e.ID(), p, n.IsDir, m.IsDir(p)))
			}
			if complete {
				got := make([]string, len(kids))
				for i, k := range kids {
					got[i] = k.Name
				}
				sort.Strings(got)
				if want, _ := m.List(p); !slices.Equal(got, want) {
					bad = append(bad, fmt.Sprintf("cache of %s lists %s complete as %v, oracle %v",
						e.ID(), p, got, want))
				}
			}
		}
	}
	return bad
}

// checkMonotone verifies no store counter (every ndb.Stats field) moved
// backwards.
func checkMonotone(prev, cur ndb.Stats) (bad []string) {
	p, c := reflect.ValueOf(prev), reflect.ValueOf(cur)
	for i := 0; i < p.NumField(); i++ {
		if a, b := p.Field(i).Uint(), c.Field(i).Uint(); b < a {
			bad = append(bad, fmt.Sprintf("counter %s went backwards: %d -> %d", p.Type().Field(i).Name, a, b))
		}
	}
	return bad
}
