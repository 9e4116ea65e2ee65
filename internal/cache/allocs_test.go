//go:build !race

package cache

import (
	"fmt"
	"testing"

	"lambdafs/internal/namespace"
)

// The hit paths copy no INode: what they allocate is the path split, the
// trie's one-descent chain and the slice handed back — a fixed count,
// whatever the rows hold. (Not under -race: the detector allocates.)
func TestHitPathAllocs(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b", chainFor("/a/b"))
	kids := make([]*namespace.INode, 64)
	for i := range kids {
		kids[i] = &namespace.INode{ID: namespace.INodeID(200 + i), Name: fmt.Sprintf("f%02d", i),
			Blocks: []namespace.Block{{ID: 1, Locations: []string{"dn1", "dn2", "dn3"}}}}
	}
	c.PutListing("/a/b", kids)

	if got := testing.AllocsPerRun(100, func() { c.Lookup("/a/b/f00") }); got != 3 {
		t.Errorf("Lookup hit of a depth-3 path: %v allocs, want 3 (split, entries, chain)", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Listing("/a/b") }); got != 4 {
		t.Errorf("Listing hit of 64 children: %v allocs, want 4 (split, entries, children, listing)", got)
	}
}
