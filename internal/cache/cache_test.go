package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lambdafs/internal/childindex"
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

// TestLookupMissTouchesPrefix: a miss returns no chain, but it touches the
// cached prefix as a hit would, so the eviction that would have taken the
// prefix at its parent (/a, the coldest row before the lookup) takes the
// sibling /b instead.
func TestLookupMissTouchesPrefix(t *testing.T) {
	fill := func(budget int64) *Cache {
		c := New(budget)
		c.PutChain("/a/x", chainFor("/a/x"))
		c.PutChain("/b", chainFor("/b")) // LRU, coldest first: /a, /a/x, /, /b
		return c
	}
	c := fill(fill(0).UsedBytes()) // a budget the fixture just fits
	if chain, hit := c.Lookup("/a/x/missing/deeper"); hit || chain != nil {
		t.Fatalf("Lookup miss = %v, %v; want nil, false", chain, hit)
	}
	c.Put("/c", inode(101, "c", false)) // as many bytes as /b's row: one eviction
	if !c.Contains("/a") || !c.Contains("/a/x") {
		t.Fatal("the missed lookup's cached prefix was evicted: the miss did not touch it")
	}
	if s := c.Stats(); s.Evictions != 1 || c.Contains("/b") {
		t.Fatalf("fixture: %d evictions, want /b's row alone to go", s.Evictions)
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
	if n := c.Invalidate("/"); n != 4 { // /, /a, /b, /b/x
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
		c.Invalidate("/")
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

// TestCachesShareStorageConcurrently: caches on goroutines of their own,
// each under memory pressure, recycle nodes and chunks through the pools
// they share, and each still answers only with rows it was given, its tree
// sound (checkTree). (check.sh runs it under -race.)
func TestCachesShareStorageConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := New(4_000)
			rng := rand.New(rand.NewSource(int64(w)))
			kids := make([]*namespace.INode, 20)
			for i := range kids {
				kids[i] = inode(namespace.INodeID(w<<20|i), fmt.Sprintf("k%02d", i), false)
			}
			for i := 0; i < 2000; i++ {
				d := fmt.Sprintf("/w%d/d%d", w, rng.Intn(8))
				switch rng.Intn(4) {
				case 0:
					c.PutChain(d, chainFor(d))
					c.PutListing(d, kids[:rng.Intn(len(kids))])
				case 1:
					c.Invalidate(d)
				default:
					p := d + "/" + kids[rng.Intn(len(kids))].Name
					c.PutChain(p, chainFor(p))
					if in, ok := c.Get(p); ok && in.Name != namespace.BaseName(p) {
						t.Errorf("cache %d: %s holds %q", w, p, in.Name)
						return
					}
				}
			}
			if err := c.checkTree(); err != nil {
				t.Errorf("cache %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
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
	dir.Mtime += int64(time.Hour) // the row the writer commits
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
		if got, _ := ca.Get("/dir"); got.Mtime != dir.Mtime {
			t.Fatalf("%s: directory row not the committed one", c.name)
		}
	}
}

// TestListingSuspensionIsFragile: only the suspending writer's resume makes
// the listing complete again, and only if nothing touched it in between.
func TestListingSuspensionIsFragile(t *testing.T) {
	dir, child := inode(2, "dir", true), inode(12, "c", false)
	full := listed(0).UsedBytes() // a budget the fixture just fits
	for name, touch := range map[string]func(c *Cache){
		"peer INV of a sibling": func(c *Cache) { c.Invalidate("/dir/b") },
		"prefix INV of the dir": func(c *Cache) { c.Invalidate("/dir") },
		"ClearComplete":         func(c *Cache) { c.ClearComplete("/dir") },
		"a second suspension":   func(c *Cache) { c.SuspendListing("/dir/d", "") },
		"eviction of a sibling": func(c *Cache) {
			c.Lookup("/dir/b") // a is now the coldest row
			b := inode(11, "b", false)
			b.Owner = "o" // one byte more than the cache has room for
			if c.Put("/dir/b", b); c.Contains("/dir/a") || c.Stats().Evictions != 1 {
				t.Fatal("fixture: growing b did not evict a alone")
			}
		},
	} {
		c := listed(full)
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

// TestStructuralNodeLeftByPut: a row put without its ancestors sits under
// structural nodes — counted and charged, invisible to lookups — until the
// chain above it is cached.
func TestStructuralNodeLeftByPut(t *testing.T) {
	c := New(0)
	deep := inode(7, "c", false)
	c.Put("/a/b/c", deep)
	if c.Len() != 1 || !c.Contains("/a/b/c") || c.Contains("/a/b") || c.Contains("/a") {
		t.Fatalf("len %d: want the one row at /a/b/c and nothing above it", c.Len())
	}
	if chain, hit := c.Lookup("/a/b/c"); hit || len(chain) != 0 {
		t.Fatalf("Lookup through structural nodes = %v, %v; want an empty miss", chain, hit)
	}
	c.PutChain("/a/b", chainFor("/a/b"))
	if chain, hit := c.Lookup("/a/b/c"); !hit || len(chain) != 4 || chain[3] != deep {
		t.Fatalf("Lookup once the chain above is cached = %v, %v; want the row put first", chain, hit)
	}
}

// TestInvalidateRootResetsCache: invalidating "/" empties the cache in place,
// structural nodes and listings included, and it fills again from scratch.
func TestInvalidateRootResetsCache(t *testing.T) {
	c := New(0)
	c.PutChain("/a/b", chainFor("/a/b"))
	c.PutListing("/", []*namespace.INode{inode(10, "a", true)})
	c.Put("/x/y", inode(11, "y", false))
	if n := c.Invalidate("/"); n != 4 {
		t.Fatalf("root invalidation removed %d, want 4", n)
	}
	if c.Len() != 0 || c.UsedBytes() != 0 || c.IsComplete("/") || c.Contains("/x/y") {
		t.Fatalf("after root invalidation: len %d, used %d", c.Len(), c.UsedBytes())
	}
	c.PutChain("/a", chainFor("/a"))
	if _, hit := c.Lookup("/a"); !hit {
		t.Fatal("no hit after refilling")
	}
	if _, hit := c.Lookup("/a/b"); hit || c.Len() != 2 {
		t.Fatalf("a row from before the reset came back (len %d)", c.Len())
	}
	if s := c.Stats(); s.Invalidations != 4 || s.Puts != 6 {
		t.Fatalf("stats %+v", s)
	}
}

// TestPrefixRemovalKeepsSiblings: removing /a takes what is under /a, not
// /a2 (a shared name prefix) and not /b/a (a shared base name).
func TestPrefixRemovalKeepsSiblings(t *testing.T) {
	c := New(0)
	for _, p := range []string{"/a/x/y", "/a2/x", "/b/a"} {
		c.PutChain(p, chainFor(p))
	}
	if n := c.Invalidate("/a"); n != 3 {
		t.Fatalf("removed %d, want 3", n)
	}
	for _, p := range []string{"/a2/x", "/b/a"} {
		if _, hit := c.Lookup(p); !hit {
			t.Fatalf("%s went with /a", p)
		}
	}
	if n := c.Invalidate("/missing"); n != 0 {
		t.Fatalf("removed %d under a missing prefix", n)
	}
}

// TestFreeListEmptiedByEachOp: the nodes an invalidation, an evicting put
// or a suspension detaches leave the cache when that operation ends: after
// each, its free list is empty and the pooled nodes are out of its tree
// (checkTree), a refill of the invalidated subtree included.
func TestFreeListEmptiedByEachOp(t *testing.T) {
	c := New(0)
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("/big/d%02d/f%02d", i/40, i%40)
		c.PutChain(p, chainFor(p))
	}
	for _, p := range []string{"/small/x", "/small/y/z"} {
		c.PutChain(p, chainFor(p))
	}
	check := func(what string) {
		t.Helper()
		if err := c.checkTree(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	if n := c.Invalidate("/big"); n != 1+25+1000 {
		t.Fatalf("invalidating /big removed %d rows", n)
	}
	check("invalidating /big")
	c.PutChain("/big/f", chainFor("/big/f"))
	check("refilling /big/f")
	c.SuspendListing("/small/y/z", "/small/x")
	if c.Contains("/small/y/z") || c.Contains("/small/x") {
		t.Fatal("SuspendListing left a row it drops")
	}
	check("a suspension that drops two rows")
	full := New(0)
	full.PutChain("/t00/f", chainFor("/t00/f"))
	tight := New(full.UsedBytes()) // room for the root and one chain
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("/t%02d/f", i)
		tight.PutChain(p, chainFor(p))
		if err := tight.checkTree(); err != nil {
			t.Fatalf("after evicting put %d: %v", i, err)
		}
	}
	if ev := tight.Stats().Evictions; ev != 2*49 {
		t.Fatalf("fixture: 50 puts evicted %d rows, want 2 per put after the first", ev)
	}
	c.Invalidate("/")
	if c.Len() != 0 {
		t.Fatalf("%d rows left after invalidating the root", c.Len())
	}
	check("invalidating the root")
}

// model is the reference TestCacheMatchesReferenceModel holds the cache to:
// a map of path → row, the LRU order as a slice (most recent first) and the
// same byte charge, with every operation written out the obvious way.
type model struct {
	budget  int64
	rows    map[string]*namespace.INode
	listing map[string]listingState
	lru     []string
	used    int64
	stats   Stats
}

func newModel(budget int64) *model {
	return &model{budget: budget, rows: map[string]*namespace.INode{}, listing: map[string]listingState{}}
}

func modelBytes(p string, n *namespace.INode) int64 {
	return int64(n.ApproxBytes() + len(p) + perEntryOverhead)
}

func (m *model) touch(p string) {
	m.lru = slices.DeleteFunc(m.lru, func(q string) bool { return q == p })
	m.lru = slices.Insert(m.lru, 0, p)
}

func (m *model) put(p string, n *namespace.INode) {
	if old, ok := m.rows[p]; ok {
		m.used -= modelBytes(p, old)
	} else {
		m.listing[p] = listingUnknown
		m.stats.Puts++
	}
	m.rows[p] = n
	m.used += modelBytes(p, n)
	m.touch(p)
	for m.budget > 0 && m.used > m.budget && len(m.lru) > 0 {
		m.remove(m.lru[len(m.lru)-1], true)
	}
}

// drop removes p and every row under it; remove also makes p's parent's
// listing unknown when a row went.
func (m *model) drop(p string, eviction bool) int {
	removed := 0
	for q, n := range m.rows {
		if namespace.HasPathPrefix(q, p) {
			m.used -= modelBytes(q, n)
			delete(m.rows, q)
			delete(m.listing, q)
			m.lru = slices.DeleteFunc(m.lru, func(r string) bool { return r == q })
			removed++
		}
	}
	if eviction {
		m.stats.Evictions += uint64(removed)
	} else {
		m.stats.Invalidations += uint64(removed)
	}
	return removed
}

func (m *model) remove(p string, eviction bool) int {
	removed := m.drop(p, eviction)
	if parent := namespace.ParentPath(p); removed > 0 && p != "/" && m.rows[parent] != nil {
		m.listing[parent] = listingUnknown
	}
	return removed
}

// chainPaths returns p and its ancestors, root first.
func chainPaths(p string) []string {
	if p == "/" {
		return []string{"/"}
	}
	return append(namespace.Ancestors(p), p)
}

func (m *model) putChain(p string, chain []*namespace.INode) {
	paths := chainPaths(p)
	if len(chain) == 0 || len(chain) > len(paths) {
		return
	}
	for i, n := range chain {
		m.put(paths[i], n)
	}
}

func (m *model) lookup(p string) ([]*namespace.INode, bool) {
	paths := chainPaths(p)
	var chain []*namespace.INode
	for _, q := range paths {
		n := m.rows[q]
		if n == nil {
			break
		}
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		m.touch(paths[i])
	}
	if len(chain) < len(paths) {
		return nil, false // a miss returns no chain, but it touched the prefix
	}
	return chain, true
}

func (m *model) putListing(dir string, kids []*namespace.INode) {
	if m.rows[dir] == nil {
		return
	}
	for _, k := range kids {
		m.put(namespace.JoinPath(dir, k.Name), k)
	}
	if m.rows[dir] == nil {
		return
	}
	for _, k := range kids {
		if m.rows[namespace.JoinPath(dir, k.Name)] == nil {
			return
		}
	}
	m.listing[dir] = listingComplete
}

func (m *model) listingOf(dir string) ([]*namespace.INode, bool) {
	for _, q := range chainPaths(dir) {
		if m.rows[q] == nil {
			return nil, false
		}
	}
	if m.listing[dir] != listingComplete {
		return nil, false
	}
	m.lookup(dir)
	var kids []*namespace.INode
	for q, n := range m.rows {
		if q != "/" && namespace.ParentPath(q) == dir {
			kids = append(kids, n)
		}
	}
	return kids, true
}

func (m *model) suspend(p, gone string) bool {
	if p == "/" {
		return false
	}
	m.drop(p, false)
	if gone != "" {
		m.drop(gone, false)
	}
	dir := namespace.ParentPath(p)
	if m.rows[dir] == nil {
		return false
	}
	if m.listing[dir] != listingComplete {
		m.listing[dir] = listingUnknown
		return false
	}
	m.listing[dir] = listingSuspended
	return true
}

func (m *model) resume(p string, parent, child *namespace.INode) bool {
	if p == "/" {
		return false
	}
	dir := namespace.ParentPath(p)
	suspended := func() bool { return m.rows[dir] != nil && m.listing[dir] == listingSuspended }
	if !suspended() {
		return false
	}
	m.put(dir, parent)
	if child != nil {
		if !suspended() {
			return false
		}
		m.put(p, child)
	}
	if !suspended() {
		return false
	}
	if child != nil && m.rows[p] == nil {
		m.listing[dir] = listingUnknown
		return false
	}
	m.listing[dir] = listingComplete
	return true
}

func byID(ns []*namespace.INode) []*namespace.INode {
	ns = slices.Clone(ns)
	slices.SortFunc(ns, func(a, b *namespace.INode) int { return int(a.ID) - int(b.ID) })
	return ns
}

// checkTree holds the trie to its shape and the recycled storage to what it
// must be between operations. In the tree, every node's children are
// strictly increasing by name, in chunks none over childindex.MaxChunk and
// none empty but a lone one, each filed under its own name with the node
// as its parent, and every chunk reads zero past its length, so it pins no
// node it no longer holds. The free list is empty: the last operation
// spilled it. The spare nodes the shared pool hands out first (up to
// pooledChecked of them, given back after) are out of the tree and the LRU
// list and empty: no row, no bytes, no parent, no name, no children,
// listing unknown.
func (c *Cache) checkTree() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	inTree := map[*node]bool{}
	var walk func(n *node, path string) error
	walk = func(n *node, path string) error {
		if inTree[n] {
			return nil // a node linked twice: the counts below disagree
		}
		inTree[n] = true
		var prev string
		for ci, chunk := range n.kids {
			if (len(chunk) == 0 && len(n.kids) > 1) || len(chunk) > childindex.MaxChunk {
				return fmt.Errorf("%s: chunk %d of %d holds %d children", path, ci, len(n.kids), len(chunk))
			}
			for i, e := range chunk[len(chunk):cap(chunk)] {
				if e != (childindex.Entry[*node]{}) {
					return fmt.Errorf("%s: chunk %d of %d holds %q at %d, past its %d children", path, ci, len(n.kids), e.Name, len(chunk)+i, len(chunk))
				}
			}
			for i, e := range chunk {
				if (ci > 0 || i > 0) && e.Name <= prev {
					return fmt.Errorf("%s: children out of order, %q before %q", path, prev, e.Name)
				}
				prev = e.Name
				if ch := e.Val; ch.name != e.Name || ch.parent != n {
					return fmt.Errorf("%s: child %q filed as %q, parent link %v", path, ch.name, e.Name, ch.parent == n)
				}
				if err := walk(e.Val, namespace.JoinPath(path, e.Name)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(&c.root, "/"); err != nil {
		return err
	}
	inLRU := map[*node]bool{}
	for n := c.lru.next; n != &c.lru && n != nil && len(inLRU) <= c.rows; n = n.next {
		inLRU[n] = true
	}
	if c.free != nil {
		return errors.New("the free list holds nodes between operations: the last one did not spill it")
	}
	var pooled []*node
	defer func() {
		for _, n := range pooled {
			spareNodes.Put(n)
		}
	}()
	for len(pooled) < pooledChecked {
		n, ok := spareNodes.Get().(*node)
		if !ok {
			break
		}
		pooled = append(pooled, n)
		switch {
		case inTree[n] || inLRU[n]:
			return fmt.Errorf("pooled node %d is still reachable (from the root %v, from the LRU list %v)", len(pooled), inTree[n], inLRU[n])
		case n.inode != nil || n.bytes != 0 || n.parent != nil || n.prev != nil || n.next != nil || n.name != "" || n.kids != nil || n.kids0[0] != nil || n.listing != listingUnknown:
			return fmt.Errorf("pooled node %d not emptied: row %v, %d bytes, parent %v, prev %v, next %v, name %q, %d children, listing %d",
				len(pooled), n.inode != nil, n.bytes, n.parent != nil, n.prev != nil, n.next != nil, n.name, n.kids.Len(), n.listing)
		}
	}
	return nil
}

// pooledChecked bounds the spare nodes one checkTree takes out of the
// shared pool: the most recently spilled come out first.
const pooledChecked = 64

// TestCacheMatchesReferenceModel drives the cache and the model with the same
// seeded random operations, at a budget that evicts on most puts and without
// one, and requires the same answers and the same Len, UsedBytes, Stats,
// Contains and IsComplete after every step — so the cache evicts exactly the
// rows the model does — and a sound free list (checkTree).
func TestCacheMatchesReferenceModel(t *testing.T) {
	var universe []string
	var walk func(p string, depth int)
	walk = func(p string, depth int) {
		universe = append(universe, p)
		if depth < 3 {
			for _, name := range []string{"a", "b", "c"} {
				walk(namespace.JoinPath(p, name), depth+1)
			}
		}
	}
	walk("/", 0)

	for _, budget := range []int64{600, 0} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, m := New(budget), newModel(budget)
			id := namespace.INodeID(0)
			row := func(name string) *namespace.INode {
				id++
				return &namespace.INode{ID: id, Name: name, IsDir: true, Owner: strings.Repeat("o", rng.Intn(40))}
			}
			path := func() string { // mostly below the root; "/" one time in 40
				if rng.Intn(40) == 0 {
					return "/"
				}
				return universe[1+rng.Intn(len(universe)-1)]
			}
			puts, evicting := 0, 0
			for step := 0; step < 1500; step++ {
				p := path()
				var what string
				before := c.Stats()
				switch op := rng.Intn(10); op {
				case 0, 1, 2: // PutChain, sometimes of a prefix, rarely too long
					comps := namespace.SplitPath(p)
					chain := []*namespace.INode{row("")}
					for _, name := range comps[:rng.Intn(len(comps)+1)] {
						chain = append(chain, row(name))
					}
					if rng.Intn(20) == 0 {
						chain = append(chain, row("z"), row("z"))
					}
					what = fmt.Sprintf("PutChain(%s, %d rows)", p, len(chain))
					c.PutChain(p, chain)
					m.putChain(p, chain)
				case 3: // Put, possibly without ancestors
					n := row(namespace.BaseName(p))
					what = "Put(" + p + ")"
					c.Put(p, n)
					m.put(p, n)
				case 4:
					var kids []*namespace.INode
					for k := rng.Intn(4); k > 0; k-- {
						kids = append(kids, row([]string{"a", "b", "c"}[rng.Intn(3)]))
					}
					what = fmt.Sprintf("PutListing(%s, %d kids)", p, len(kids))
					c.PutListing(p, kids)
					m.putListing(p, kids)
				case 5:
					n := row(namespace.BaseName(namespace.ParentPath(p)))
					var child *namespace.INode
					if rng.Intn(3) > 0 {
						child = row(namespace.BaseName(p))
					}
					what = fmt.Sprintf("ResumeListing(%s, child %v)", p, child != nil)
					if got, want := c.ResumeListing(p, n, child), m.resume(p, n, child); got != want {
						t.Fatalf("budget %d seed %d step %d: %s = %v, model %v", budget, seed, step, what, got, want)
					}
				default:
					switch op {
					case 6:
						what = "Lookup(" + p + ")"
						got, hit := c.Lookup(p)
						want, wantHit := m.lookup(p)
						if hit != wantHit || !slices.Equal(got, want) {
							t.Fatalf("budget %d seed %d step %d: %s = %v %v, model %v %v", budget, seed, step, what, got, hit, want, wantHit)
						}
					case 7:
						what = "Listing(" + p + ")"
						got, ok := c.Listing(p)
						want, wantOK := m.listingOf(p)
						if ok != wantOK || !slices.Equal(byID(got), byID(want)) {
							t.Fatalf("budget %d seed %d step %d: %s = %v %v, model %v %v", budget, seed, step, what, got, ok, want, wantOK)
						}
					case 8:
						what = "Invalidate(" + p + ")"
						if got, want := c.Invalidate(p), m.remove(p, false); got != want {
							t.Fatalf("budget %d seed %d step %d: %s = %d, model %d", budget, seed, step, what, got, want)
						}
					case 9:
						gone := ""
						if rng.Intn(2) == 0 {
							gone = path()
						}
						if rng.Intn(4) == 0 {
							what = "ClearComplete(" + p + ")"
							c.ClearComplete(p)
							if m.rows[p] != nil {
								m.listing[p] = listingUnknown
							}
						} else {
							what = fmt.Sprintf("SuspendListing(%s, %q)", p, gone)
							if got, want := c.SuspendListing(p, gone), m.suspend(p, gone); got != want {
								t.Fatalf("budget %d seed %d step %d: %s = %v, model %v", budget, seed, step, what, got, want)
							}
						}
					}
				}
				if after := c.Stats(); after.Puts > before.Puts {
					puts++
					if after.Evictions > before.Evictions {
						evicting++
					}
				}
				if c.Len() != len(m.rows) || c.UsedBytes() != m.used || c.Stats() != m.stats {
					t.Fatalf("budget %d seed %d step %d, after %s: len %d used %d stats %+v; model len %d used %d stats %+v",
						budget, seed, step, what, c.Len(), c.UsedBytes(), c.Stats(), len(m.rows), m.used, m.stats)
				}
				for _, q := range universe {
					if c.Contains(q) != (m.rows[q] != nil) || c.IsComplete(q) != (m.rows[q] != nil && m.listing[q] == listingComplete) {
						t.Fatalf("budget %d seed %d step %d, after %s: %s cached %v complete %v, model disagrees",
							budget, seed, step, what, q, c.Contains(q), c.IsComplete(q))
					}
				}
				if err := c.checkTree(); err != nil {
					t.Fatalf("budget %d seed %d step %d, after %s: %v", budget, seed, step, what, err)
				}
			}
			if budget > 0 && 2*evicting <= puts {
				t.Fatalf("budget %d seed %d: only %d of %d puts of a new row evicted", budget, seed, evicting, puts)
			}
		}
	}
}
