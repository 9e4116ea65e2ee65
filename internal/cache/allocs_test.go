//go:build !race

package cache

import (
	"fmt"
	"runtime"
	"testing"

	"lambdafs/internal/namespace"
)

// The hit paths copy no INode and split no path: what they allocate is the
// slice handed back — a fixed count, whatever the rows hold — and nothing
// when the caller's storage holds the chain or the listing. (Not under -race: the detector
// allocates.)
func TestHitPathAllocs(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b", chainFor("/a/b"))
	kids := make([]*namespace.INode, 64)
	for i := range kids {
		kids[i] = &namespace.INode{ID: namespace.INodeID(200 + i), Name: fmt.Sprintf("f%02d", i),
			Blocks: []namespace.Block{{ID: 1, Locations: []string{"dn1", "dn2", "dn3"}}}}
	}
	c.PutListing("/a/b", kids)

	if got := testing.AllocsPerRun(100, func() { c.Lookup("/a/b/f00") }); got != 1 {
		t.Errorf("Lookup hit of a depth-3 path: %v allocs, want 1 (the chain)", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		var buf [4]*namespace.INode
		if chain, hit := c.LookupInto("/a/b/f00", buf[:0]); !hit || len(chain) != 4 {
			t.Fatalf("LookupInto /a/b/f00: %d rows, hit %v", len(chain), hit)
		}
	}); got != 0 {
		t.Errorf("LookupInto hit of a depth-3 path into a stack buffer: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Get("/a/b/f00") }); got != 0 {
		t.Errorf("Get hit of a depth-3 path: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Listing("/a/b") }); got != 1 {
		t.Errorf("Listing hit of 64 children: %v allocs, want 1 (the listing)", got)
	}
	room := make([]namespace.DirEntry, 64)
	if got := testing.AllocsPerRun(100, func() {
		if entries, ok := c.Entries("/a/b", func(n int) []namespace.DirEntry { return room[:n] }); !ok || len(entries) != 64 || entries[63].Name != "f63" {
			t.Fatalf("Entries /a/b: %d entries, hit %v", len(entries), ok)
		}
	}); got != 0 {
		t.Errorf("Entries hit of 64 children into the caller's storage: %v allocs, want 0 (written under the lock, in name order as the children are kept)", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Lookup("/a/b/missing/f") }); got != 0 {
		t.Errorf("Lookup miss below a cached depth-2 prefix: %v allocs, want 0", got)
	}
}

// emptyPools drops the spare nodes and chunks every Cache shares, so a pin
// that counts a fresh allocation counts the same whatever ran before it: a
// sync.Pool keeps what it holds through one collection, not two.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// With nothing to recycle — the pools emptied, and nothing evicted or
// invalidated since — caching a new row allocates its node, and a
// directory's first child adds its child list's first chunk: the list's
// header is the node's own.
func TestPutChainAllocs(t *testing.T) {
	emptyPools()
	c := New(0)
	c.PutChain("/d/seed", chainFor("/d/seed"))
	chain := chainFor("/d/f")
	paths := make([]string, 101) // AllocsPerRun's warm-up run plus its 100
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%03d", i)
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		c.PutChain(paths[i], chain)
		i++
	}); got != 1 {
		t.Errorf("PutChain of a new row under a cached parent, nothing to recycle: %v allocs, want 1 (a new node)", got)
	}

	for j, p := range paths {
		paths[j] = p + "/f"
	}
	deeper := chainFor("/d/f/f")
	i = 0
	if got := testing.AllocsPerRun(100, func() {
		c.PutChain(paths[i], deeper)
		i++
	}); got != 2 {
		t.Errorf("PutChain of a directory's first child, nothing to recycle: %v allocs, want 2 (a new node and its parent's first chunk)", got)
	}
}

// Under memory pressure a chain's nodes are the ones its put evicted, and
// its child lists' chunks the ones they held: a put that evicts a chain of
// its own shape allocates nothing.
func TestPutChainEvictingAllocs(t *testing.T) {
	paths := make([]string, 400)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%03d/f", i)
	}
	chain := chainFor(paths[0]) // every put caches the same rows: their bytes match
	full := New(0)
	for _, p := range paths[:4] {
		full.PutChain(p, chain)
	}
	c, i := New(full.UsedBytes()), 0 // room for the root and four chains
	put := func() {
		c.PutChain(paths[i], chain)
		i++
	}
	for i < 200 {
		put()
	}
	before := c.Stats().Evictions
	if got := testing.AllocsPerRun(100, put); got != 0 {
		t.Errorf("steady-state PutChain evicting one chain: %v allocs, want 0", got)
	}
	if evicted := c.Stats().Evictions - before; evicted != 2*101 || c.Len() != 9 {
		t.Errorf("fixture: %d rows evicted by 101 puts, %d cached; want 2 per put and 9", evicted, c.Len())
	}
}

// A listing fill under memory pressure is recycled the same way: once the
// free list and the chunk pool have warmed up, caching a directory and its
// 16 children, which evicts an older directory and its children, allocates
// nothing — the nodes come off the free list and the directory's chunk,
// grown one capacity at a time, out of the pool.
func TestPutListingEvictingAllocs(t *testing.T) {
	kids := make([]*namespace.INode, 16)
	for i := range kids {
		kids[i] = &namespace.INode{ID: namespace.INodeID(200 + i), Name: fmt.Sprintf("f%02d", i)}
	}
	dirs := make([]string, 400)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/d%03d", i)
	}
	chain := chainFor(dirs[0]) // every fill caches the same rows: their bytes match
	full := New(0)
	for _, d := range dirs[:3] {
		full.PutChain(d, chain)
		full.PutListing(d, kids)
	}
	c, i := New(full.UsedBytes()), 0 // room for the root and three listed directories
	fill := func() {
		c.PutChain(dirs[i], chain)
		c.PutListing(dirs[i], kids)
		i++
	}
	for i < 200 {
		fill()
	}
	before := c.Stats().Evictions
	if got := testing.AllocsPerRun(100, fill); got != 0 {
		t.Errorf("steady-state PutChain and PutListing of 16 children, evicting: %v allocs, want 0", got)
	}
	if evicted := c.Stats().Evictions - before; evicted != 17*101 || !c.IsComplete(dirs[i-1]) {
		t.Errorf("fixture: %d rows evicted by 101 fills, last listing complete %v; want 17 per fill, complete", evicted, c.IsComplete(dirs[i-1]))
	}
	if err := c.checkTree(); err != nil {
		t.Error(err)
	}
}

// TestStorageRecyclesAcrossCaches: the nodes and chunks one cache gives up
// are every cache's. Cache A caches chains and listings, loses them to
// evictions (a second set of the same shapes) and then an invalidation of
// everything, and cache B then caches the first set without allocating.
func TestStorageRecyclesAcrossCaches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a sync.Pool hands back what it was given on the same P
	emptyPools()
	kids := make([]*namespace.INode, 16)
	for i := range kids {
		kids[i] = &namespace.INode{ID: namespace.INodeID(200 + i), Name: fmt.Sprintf("f%02d", i)}
	}
	type shape struct {
		dir, deep     string
		dirRows, rows []*namespace.INode
	}
	set := func(prefix string) []shape {
		s := make([]shape, 8)
		for i := range s {
			d := fmt.Sprintf("/%s%d/sub", prefix, i)
			deep := fmt.Sprintf("/%s%d/x/y/z", prefix, i)
			s[i] = shape{d, deep, chainFor(d), chainFor(deep)}
		}
		return s
	}
	fill := func(c *Cache, s []shape) {
		for _, sh := range s {
			c.PutChain(sh.deep, sh.rows)
			c.PutChain(sh.dir, sh.dirRows)
			c.PutListing(sh.dir, kids)
		}
	}
	first, second := set("d"), set("e") // the same shapes, the same bytes
	ref := New(0)
	fill(ref, first)
	a := New(ref.UsedBytes()) // room for the root and one set
	fill(a, first)
	fill(a, second)
	if a.Stats().Evictions == 0 || a.Contains(first[0].deep) {
		t.Fatalf("fixture: cache A evicted %d rows filling the second set, still holds %s", a.Stats().Evictions, first[0].deep)
	}
	a.Invalidate("/")
	b := New(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill(b, first)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("cache B allocated %d objects caching the shapes cache A gave up, want 0: every node and chunk recycled", n)
	}
	if !b.IsComplete(first[7].dir) || b.Len() != ref.Len() {
		t.Errorf("fixture: cache B holds %d rows, want %d, last listing complete %v", b.Len(), ref.Len(), b.IsComplete(first[7].dir))
	}
}
