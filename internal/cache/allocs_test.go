//go:build !race

package cache

import (
	"fmt"
	"testing"

	"lambdafs/internal/namespace"
)

// The hit paths copy no INode and split no path: what they allocate is the
// slice handed back — a fixed count, whatever the rows hold. (Not under
// -race: the detector allocates.)
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
	if got := testing.AllocsPerRun(100, func() { c.Listing("/a/b") }); got != 1 {
		t.Errorf("Listing hit of 64 children: %v allocs, want 1 (the listing)", got)
	}
}

// Caching a new row is one node; a directory's first child adds its
// children map.
func TestPutChainAllocs(t *testing.T) {
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
		t.Errorf("PutChain of a new row under a cached parent: %v allocs, want 1 (the node)", got)
	}

	for j, p := range paths {
		paths[j] = p + "/f"
	}
	deeper := chainFor("/d/f/f")
	i = 0
	if got := testing.AllocsPerRun(100, func() {
		c.PutChain(paths[i], deeper)
		i++
	}); got != 3 {
		t.Errorf("PutChain of a directory's first child: %v allocs, want 3 (the node, the children map's header and first group)", got)
	}
}
