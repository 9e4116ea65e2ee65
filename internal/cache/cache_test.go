package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lambdafs/internal/namespace"
)

func inode(id namespace.INodeID, name string, dir bool) *namespace.INode {
	return &namespace.INode{ID: id, Name: name, IsDir: dir}
}

// chainFor builds a plausible INode chain for a path.
func chainFor(path string) []*namespace.INode {
	comps := namespace.SplitPath(path)
	chain := []*namespace.INode{namespace.NewRoot()}
	for i, c := range comps {
		chain = append(chain, inode(namespace.INodeID(100+i), c, i < len(comps)-1))
	}
	return chain
}

func TestLookupHitAfterPutChain(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b/f.txt", chainFor("/a/b/f.txt"))
	chain, hit := c.Lookup("/a/b/f.txt")
	if !hit || len(chain) != 4 {
		t.Fatalf("chain=%d hit=%v", len(chain), hit)
	}
	if chain[3].Name != "f.txt" {
		t.Fatalf("terminal = %v", chain[3])
	}
	// Ancestors hit too.
	if _, hit := c.Lookup("/a/b"); !hit {
		t.Fatal("interior path not cached")
	}
	if _, hit := c.Lookup("/"); !hit {
		t.Fatal("root not cached")
	}
}

func TestLookupMissReturnsLongestPrefix(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b", chainFor("/a/b"))
	chain, hit := c.Lookup("/a/b/missing/deeper")
	if hit {
		t.Fatal("unexpected hit")
	}
	if len(chain) != 3 { // /, /a, /a/b
		t.Fatalf("prefix chain length = %d", len(chain))
	}
}

// TestLookupReturnsCachedPointers is the sharing contract: a published INode
// is immutable (namespace.INode), so the cache keeps the pointer it is given
// and Lookup and Listing hand that same pointer out — and a new version of a
// row replaces the entry's pointer, it never edits the old version.
func TestLookupReturnsCachedPointers(t *testing.T) {
	c := New(0)
	v1 := chainFor("/d/f")
	c.PutChain("/d/f", v1)
	c.PutListing("/d", v1[2:])
	chain, hit := c.Lookup("/d/f")
	if !hit || !slices.Equal(chain, v1) {
		t.Fatalf("Lookup = %v (hit %v), want the pointers that were put: %v", chain, hit, v1)
	}
	if kids, ok := c.Listing("/d"); !ok || !slices.Equal(kids, v1[2:]) {
		t.Fatalf("Listing = %v (complete %v), want the pointer that was put", kids, ok)
	}

	was := *v1[2]
	v2 := v1[2].Clone()
	v2.Size = 42
	c.PutChain("/d/f", []*namespace.INode{v1[0], v1[1], v2})
	if got, _ := c.Get("/d/f"); got != v2 {
		t.Fatalf("after a second PutChain Get = %p, want the new version %p", got, v2)
	}
	if kids, _ := c.Listing("/d"); len(kids) != 1 || kids[0] != v2 {
		t.Fatalf("after a second PutChain Listing = %v, want the new version", kids)
	}
	if chain[2] != v1[2] || !reflect.DeepEqual(*v1[2], was) {
		t.Fatalf("the replaced version was edited: %+v, was %+v", *v1[2], was)
	}
}

func TestInvalidateRemovesSubtree(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b/f1", chainFor("/a/b/f1"))
	c.PutChain("/a/b/f2", chainFor("/a/b/f2"))
	c.PutChain("/a/c", chainFor("/a/c"))
	removed := c.Invalidate("/a/b")
	if removed != 3 { // /a/b, f1, f2
		t.Fatalf("removed %d, want 3", removed)
	}
	if _, hit := c.Lookup("/a/b/f1"); hit {
		t.Fatal("descendant survived invalidation")
	}
	if _, hit := c.Lookup("/a/c"); !hit {
		t.Fatal("sibling was invalidated")
	}
	if s := c.Stats(); s.Invalidations != 3 {
		t.Fatalf("invalidation count = %d", s.Invalidations)
	}
}

func TestInvalidatePrefixRoot(t *testing.T) {
	c := New(0)
	c.PutChain("/a", chainFor("/a"))
	c.PutChain("/b/x", chainFor("/b/x"))
	if n := c.InvalidatePrefix("/"); n != 4 { // /, /a, /b, /b/x
		t.Fatalf("root invalidation removed %d entries, want 4", n)
	}
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatalf("len=%d used=%d after root invalidation", c.Len(), c.UsedBytes())
	}
}

func TestEvictionRespectsBudget(t *testing.T) {
	c := New(2000)
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/dir/f%03d", i)
		c.PutChain(p, chainFor(p))
	}
	if c.UsedBytes() > 2000 {
		t.Fatalf("used %d > budget", c.UsedBytes())
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("no evictions recorded despite small budget")
	}
}

func TestEvictionPrefersCold(t *testing.T) {
	// Insert hot and cold entries; keep touching hot; cold should go first.
	c := New(3000)
	c.PutChain("/hot/f", chainFor("/hot/f"))
	for i := 0; i < 50; i++ {
		c.PutChain(fmt.Sprintf("/cold/f%d", i), chainFor(fmt.Sprintf("/cold/f%d", i)))
		c.Lookup("/hot/f") // keep hot fresh
	}
	if _, hit := c.Lookup("/hot/f"); !hit {
		t.Fatal("hot entry was evicted while cold entries existed")
	}
}

func TestByteAccountingExact(t *testing.T) {
	// Property: after arbitrary puts/invalidations, UsedBytes equals the
	// sum over surviving entries, and is 0 when empty.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(0)
		paths := make([]string, 20)
		for i := range paths {
			paths[i] = fmt.Sprintf("/d%d/f%d", rng.Intn(4), rng.Intn(6))
		}
		for op := 0; op < 100; op++ {
			p := paths[rng.Intn(len(paths))]
			if rng.Intn(3) == 0 {
				c.Invalidate(p)
			} else {
				c.PutChain(p, chainFor(p))
			}
		}
		c.InvalidatePrefix("/")
		return c.UsedBytes() == 0 && c.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorInvariant(t *testing.T) {
	// Property: any cached path's ancestors are cached too, even under a
	// tight budget forcing evictions.
	rng := rand.New(rand.NewSource(42))
	c := New(4000)
	var paths []string
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/a%d/b%d/c%d", rng.Intn(5), rng.Intn(5), rng.Intn(5))
		paths = append(paths, p)
		c.PutChain(p, chainFor(p))
	}
	for _, p := range paths {
		if !c.Contains(p) {
			continue
		}
		for _, anc := range namespace.Ancestors(p) {
			if !c.Contains(anc) {
				t.Fatalf("cached %q but ancestor %q missing", p, anc)
			}
		}
	}
}

func TestUpdateExistingEntry(t *testing.T) {
	c := New(0)
	c.PutChain("/f", chainFor("/f"))
	used := c.UsedBytes()
	n := inode(500, "f", false)
	n.Size = 4096
	n.Owner = strings.Repeat("o", 50)
	c.Put("/f", n)
	if c.Len() != 2 { // root + f
		t.Fatalf("len = %d", c.Len())
	}
	if c.UsedBytes() <= used {
		t.Fatal("byte accounting not updated on overwrite")
	}
	got, _ := c.Get("/f")
	if got.Size != 4096 {
		t.Fatal("update lost")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(50_000)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				p := fmt.Sprintf("/w%d/f%d", rng.Intn(8), rng.Intn(100))
				switch rng.Intn(4) {
				case 0:
					c.PutChain(p, chainFor(p))
				case 1:
					c.Lookup(p)
				case 2:
					c.Invalidate(p)
				case 3:
					c.Get(p)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if c.UsedBytes() < 0 {
		t.Fatal("negative byte accounting after concurrent use")
	}
}

func TestListingPutAndGet(t *testing.T) {
	c := New(0)
	c.PutChain("/dir", chainFor("/dir"))
	kids := []*namespace.INode{
		inode(10, "a", false), inode(11, "b", false), inode(12, "sub", true),
	}
	c.PutListing("/dir", kids)
	if !c.IsComplete("/dir") {
		t.Fatal("listing not marked complete")
	}
	got, ok := c.Listing("/dir")
	if !ok || len(got) != 3 {
		t.Fatalf("listing = %v %v", got, ok)
	}
	// Children are individually cached too.
	if _, hit := c.Lookup("/dir/a"); !hit {
		t.Fatal("listed child not individually cached")
	}
}

func TestListingIncompleteWithoutMark(t *testing.T) {
	c := New(0)
	c.PutChain("/dir/a", chainFor("/dir/a"))
	if _, ok := c.Listing("/dir"); ok {
		t.Fatal("listing served without completeness")
	}
}

func TestListingClearComplete(t *testing.T) {
	c := New(0)
	c.PutChain("/dir", chainFor("/dir"))
	c.PutListing("/dir", []*namespace.INode{inode(10, "a", false)})
	c.ClearComplete("/dir")
	if c.IsComplete("/dir") {
		t.Fatal("ClearComplete ineffective")
	}
	if _, hit := c.Lookup("/dir/a"); !hit {
		t.Fatal("ClearComplete must not drop cached children")
	}
}

func TestListingInvalidationOfChildClearsComplete(t *testing.T) {
	c := New(0)
	c.PutChain("/dir", chainFor("/dir"))
	c.PutListing("/dir", []*namespace.INode{inode(10, "a", false), inode(11, "b", false)})
	c.Invalidate("/dir/a")
	if c.IsComplete("/dir") {
		t.Fatal("child invalidation left listing complete")
	}
	if _, ok := c.Listing("/dir"); ok {
		t.Fatal("stale listing served")
	}
}

func TestListingEvictionOfChildClearsComplete(t *testing.T) {
	// Tight budget: inserting many entries evicts listed children; the
	// listing must never be served incomplete.
	c := New(2500)
	c.PutChain("/dir", chainFor("/dir"))
	c.PutListing("/dir", []*namespace.INode{inode(10, "a", false), inode(11, "b", false)})
	for i := 0; i < 80; i++ {
		p := fmt.Sprintf("/other/f%02d", i)
		c.PutChain(p, chainFor(p))
	}
	if got, ok := c.Listing("/dir"); ok && len(got) != 2 {
		t.Fatalf("incomplete listing served: %d entries", len(got))
	}
}

func TestListingOnUncachedDirNoop(t *testing.T) {
	c := New(0)
	c.PutListing("/ghost", []*namespace.INode{inode(1, "x", false)})
	if c.Len() != 0 {
		t.Fatal("PutListing on uncached dir inserted entries")
	}
	c.ClearComplete("/ghost") // must not panic
	if c.IsComplete("/ghost") {
		t.Fatal("ghost dir complete")
	}
}

// listed returns a cache holding /dir listed complete with files a and b.
func listed(budget int64) *Cache {
	c := New(budget)
	c.PutChain("/dir", chainFor("/dir"))
	c.PutListing("/dir", []*namespace.INode{inode(10, "a", false), inode(11, "b", false)})
	return c
}

func listingNames(t *testing.T, c *Cache, dir string) []string {
	t.Helper()
	kids, ok := c.Listing(dir)
	if !ok {
		t.Fatalf("listing of %s not complete", dir)
	}
	names := make([]string, len(kids))
	for i, k := range kids {
		names[i] = k.Name
	}
	sort.Strings(names)
	return names
}

// TestListingSuspendResume: the writer's pair. A suspended listing is never
// served; resuming installs the committed rows and serves the new child
// set — an added child, a removed one, a rename inside the directory.
func TestListingSuspendResume(t *testing.T) {
	dir := inode(2, "dir", true)
	dir.Mtime = dir.Mtime.Add(time.Hour) // the row the writer commits
	for _, c := range []struct {
		name       string
		path, gone string
		child      *namespace.INode
		want       []string
	}{
		{"create", "/dir/c", "", inode(12, "c", false), []string{"a", "b", "c"}},
		{"delete", "/dir/a", "", nil, []string{"b"}},
		{"rename", "/dir/z", "/dir/a", inode(10, "z", false), []string{"b", "z"}},
	} {
		ca := listed(0)
		if !ca.SuspendListing(c.path, c.gone) {
			t.Fatalf("%s: complete listing not suspended", c.name)
		}
		if ca.IsComplete("/dir") {
			t.Fatalf("%s: suspended listing reads complete", c.name)
		}
		if _, ok := ca.Listing("/dir"); ok {
			t.Fatalf("%s: suspended listing served", c.name)
		}
		if ca.Contains(c.path) || c.gone != "" && ca.Contains(c.gone) {
			t.Fatalf("%s: written path still cached while suspended", c.name)
		}
		if !ca.ResumeListing(c.path, dir, c.child) {
			t.Fatalf("%s: suspended listing not resumed", c.name)
		}
		if got := listingNames(t, ca, "/dir"); !slices.Equal(got, c.want) {
			t.Fatalf("%s: resumed listing = %v, want %v", c.name, got, c.want)
		}
		if got, _ := ca.Get("/dir"); !got.Mtime.Equal(dir.Mtime) {
			t.Fatalf("%s: directory row not the committed one", c.name)
		}
	}
}

// TestListingSuspensionIsFragile: only the suspending writer's resume makes
// the listing complete again, and only if nothing touched it in between.
func TestListingSuspensionIsFragile(t *testing.T) {
	dir, child := inode(2, "dir", true), inode(12, "c", false)
	for name, touch := range map[string]func(c *Cache){
		"peer INV of a sibling": func(c *Cache) { c.Invalidate("/dir/b") },
		"prefix INV of the dir": func(c *Cache) { c.InvalidatePrefix("/dir") },
		"ClearComplete":         func(c *Cache) { c.ClearComplete("/dir") },
		"a second suspension":   func(c *Cache) { c.SuspendListing("/dir/d", "") },
		"eviction of a sibling": func(c *Cache) {
			c.mu.Lock()
			c.removeSubtreeLocked([]string{"dir", "a"}, true)
			c.mu.Unlock()
		},
	} {
		c := listed(0)
		if !c.SuspendListing("/dir/c", "") {
			t.Fatalf("%s: fixture not suspended", name)
		}
		touch(c)
		if c.ResumeListing("/dir/c", dir, child) || c.IsComplete("/dir") {
			t.Errorf("%s between suspend and resume: listing came back complete", name)
		}
		if c.Contains("/dir/c") {
			t.Errorf("%s between suspend and resume: the child was installed anyway", name)
		}
	}
	// A listing that was not complete is not suspended, and a resume with no
	// suspension installs nothing.
	c := New(0)
	c.PutChain("/dir/a", chainFor("/dir/a"))
	if c.SuspendListing("/dir/c", "") {
		t.Error("an unknown listing was suspended")
	}
	if c.ResumeListing("/dir/c", dir, child) || c.IsComplete("/dir") || c.Contains("/dir/c") {
		t.Error("resume without a suspension touched the cache")
	}
	if c.SuspendListing("/dir/a", ""); c.Contains("/dir/a") {
		t.Error("SuspendListing must invalidate the written path whatever the listing's state")
	}
	if c.SuspendListing("/", "") || c.ResumeListing("/", dir, nil) {
		t.Error("the root has no parent listing")
	}
}

// TestListingResumeNeedsTheChild: when installing the committed rows evicts
// — a sibling, or the new child itself — the listing stays not complete.
func TestListingResumeNeedsTheChild(t *testing.T) {
	c := listed(0)
	used := c.UsedBytes()
	c = listed(used + 10) // room for the listing, not for one more entry
	c.Listing("/dir")     // an ls hit: the chain is hot, child a is the coldest entry
	if !c.SuspendListing("/dir/c", "") {
		t.Fatal("fixture not suspended")
	}
	if c.ResumeListing("/dir/c", inode(2, "dir", true), inode(12, "c", false)) || c.IsComplete("/dir") {
		t.Fatal("listing resumed although the install evicted")
	}
	if c.Stats().Evictions != 1 || c.Contains("/dir/a") || !c.Contains("/dir/c") {
		t.Fatalf("fixture: %d evictions, want the install of c to evict a alone", c.Stats().Evictions)
	}
	if c.UsedBytes() > used+10 {
		t.Fatalf("over budget: %d", c.UsedBytes())
	}
}
