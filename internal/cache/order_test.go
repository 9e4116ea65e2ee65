package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lambdafs/internal/childindex"
	"lambdafs/internal/namespace"
)

// orderName is the k-th name of a set that orders both by childindex.Key
// alone (short names) and past the key's eight bytes (a shared long prefix,
// and zero bytes the key's padding cannot tell apart).
func orderName(k int) string {
	switch k % 3 {
	case 0:
		return fmt.Sprintf("n%03d", k)
	case 1:
		return fmt.Sprintf("shared-prefix-%03d", k)
	}
	return strings.Repeat("\x00", k%5) + string(rune('a'+k%7)) + fmt.Sprint(k)
}

// The order run's namespace: the root, orderDirs directories under it, and
// up to orderKids children in each, more than childindex.MaxChunk so a
// directory's list splits into chunks and loses them again.
const (
	orderDirs = 3
	orderKids = 150
)

// orderRun drives a cache and the reference model with the same operations,
// each picked by draw (a number in [0, n)): PutChain, PutListing of up to
// 100 children in any order, Invalidate, SuspendListing, ResumeListing and
// Put, at the run's budget — a tight one makes most puts evict.
type orderRun struct {
	c    *Cache
	m    *model
	id   namespace.INodeID
	draw func(n int) int
}

func newOrderRun(budget int64, draw func(n int) int) *orderRun {
	return &orderRun{c: New(budget), m: newModel(budget), draw: draw}
}

func (r *orderRun) row(name string) *namespace.INode {
	r.id++
	return &namespace.INode{ID: r.id, Name: name, IsDir: true}
}

func (r *orderRun) dir() string { return "/" + orderName(r.draw(orderDirs)) }

// path is the root one time in 16, a directory one in 4, else a child.
func (r *orderRun) path() string {
	switch k := r.draw(16); {
	case k == 0:
		return "/"
	case k < 5:
		return r.dir()
	}
	return r.dir() + "/" + orderName(r.draw(orderKids))
}

// step applies one operation to both and reports it, or how their answers
// differ.
func (r *orderRun) step() (string, error) {
	c, m := r.c, r.m
	p := r.path()
	switch r.draw(6) {
	case 0:
		chain := []*namespace.INode{r.row("")}
		for _, name := range namespace.SplitPath(p) {
			chain = append(chain, r.row(name))
		}
		c.PutChain(p, chain)
		m.putChain(p, chain)
		return fmt.Sprintf("PutChain(%q)", p), nil
	case 1:
		dir := r.dir()
		var kids []*namespace.INode
		seen := map[string]bool{}
		for k := r.draw(100); k > 0; k-- {
			if name := orderName(r.draw(orderKids)); !seen[name] {
				seen[name] = true
				kids = append(kids, r.row(name))
			}
		}
		c.PutListing(dir, kids)
		m.putListing(dir, kids)
		return fmt.Sprintf("PutListing(%q, %d children)", dir, len(kids)), nil
	case 2:
		what := fmt.Sprintf("Invalidate(%q)", p)
		if got, want := c.Invalidate(p), m.remove(p, false); got != want {
			return what, fmt.Errorf("%s removed %d rows, model %d", what, got, want)
		}
		return what, nil
	case 3:
		gone := ""
		if r.draw(2) == 0 {
			gone = r.path()
		}
		what := fmt.Sprintf("SuspendListing(%q, %q)", p, gone)
		if got, want := c.SuspendListing(p, gone), m.suspend(p, gone); got != want {
			return what, fmt.Errorf("%s = %v, model %v", what, got, want)
		}
		return what, nil
	case 4:
		parent := r.row(namespace.BaseName(namespace.ParentPath(p)))
		var child *namespace.INode
		if r.draw(3) > 0 {
			child = r.row(namespace.BaseName(p))
		}
		what := fmt.Sprintf("ResumeListing(%q, child %v)", p, child != nil)
		if got, want := c.ResumeListing(p, parent, child), m.resume(p, parent, child); got != want {
			return what, fmt.Errorf("%s = %v, model %v", what, got, want)
		}
		return what, nil
	default:
		n := r.row(namespace.BaseName(p))
		c.Put(p, n)
		m.put(p, n)
		return fmt.Sprintf("Put(%q)", p), nil
	}
}

// check holds the cache to its shape (checkTree) and, for the root and
// every directory, Entries to the model's listing sorted by name.
func (r *orderRun) check() error {
	if err := r.c.checkTree(); err != nil {
		return err
	}
	if c, m := r.c, r.m; c.Len() != len(m.rows) || c.UsedBytes() != m.used || c.Stats() != m.stats {
		return fmt.Errorf("len %d used %d stats %+v; model len %d used %d stats %+v",
			c.Len(), c.UsedBytes(), c.Stats(), len(m.rows), m.used, m.stats)
	}
	dirs := []string{"/"}
	for k := 0; k < orderDirs; k++ {
		dirs = append(dirs, "/"+orderName(k))
	}
	for _, dir := range dirs {
		got, ok := r.c.Entries(dir, func(n int) []namespace.DirEntry { return make([]namespace.DirEntry, n) })
		kids, wantOK := r.m.listingOf(dir)
		want := make([]namespace.DirEntry, len(kids))
		for i, k := range kids {
			want[i] = namespace.EntryOf(k)
		}
		slices.SortFunc(want, func(a, b namespace.DirEntry) int { return strings.Compare(a.Name, b.Name) })
		if ok != wantOK || !slices.Equal(got, want) {
			return fmt.Errorf("Entries(%q) = %d entries, %v; model %d, %v", dir, len(got), ok, len(want), wantOK)
		}
	}
	return nil
}

// TestCacheKeepsChildrenInNameOrder runs seeded random operations on the
// cache and the model, at budgets that evict on most puts, on some and
// never, and after every step requires every node's children strictly in
// name order with sound parent links, and every Entries to be the model's
// listing in name order (orderRun.check).
func TestCacheKeepsChildrenInNameOrder(t *testing.T) {
	for _, budget := range []int64{4000, 20000, 0} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := newOrderRun(budget, rng.Intn)
			for step := 0; step < 600; step++ {
				what, err := r.step()
				if err == nil {
					err = r.check()
				}
				if err != nil {
					t.Fatalf("budget %d seed %d step %d, after %s: %v", budget, seed, step, what, err)
				}
			}
		}
	}
}

// FuzzCacheOps is TestCacheKeepsChildrenInNameOrder's run driven by the
// fuzzer's bytes: the first picks the budget, each later one a choice, until
// they run out.
func FuzzCacheOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 128)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budgets := []int64{4000, 20000, 0}
		budget, data := budgets[int(data[0])%len(budgets)], data[1:]
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		r := newOrderRun(budget, draw)
		for step := 0; len(data) > 0; step++ {
			what, err := r.step()
			if err == nil {
				err = r.check()
			}
			if err != nil {
				t.Fatalf("budget %d step %d, after %s: %v", budget, step, what, err)
			}
		}
	})
}

// largeDir is the big-directory guard's size: a directory of tens of
// thousands of files, as a full-scale create sweep makes.
const largeDir = 1 << 16

// TestLargeDirectoryChunksStayBounded files largeDir children under one
// cached directory in random order, then removes half of them, and after
// every operation requires the directory's list in name order with no
// chunk over childindex.MaxChunk: an insert or a removal moves a bounded
// number of entries however large the directory.
func TestLargeDirectoryChunksStayBounded(t *testing.T) {
	c := New(0)
	c.PutChain("/d", chainFor("/d"))
	paths := make([]string, largeDir)
	for i, k := range rand.New(rand.NewSource(1)).Perm(largeDir) {
		paths[i] = fmt.Sprintf("/d/f%06d", k)
	}
	row := &namespace.INode{ID: 2, Name: "f"}
	chain := []*namespace.INode{namespace.NewRoot(), chainFor("/d")[1], row}
	d := c.nodeLocked(namespace.Walk("/d"))
	check := func(what string) {
		var prev string
		for ci, chunk := range d.kids {
			if len(chunk) == 0 || len(chunk) > childindex.MaxChunk {
				t.Fatalf("after %s: chunk %d of %d holds %d children", what, ci, len(d.kids), len(chunk))
			}
			if first := chunk[0].Name; ci > 0 && first <= prev {
				t.Fatalf("after %s: chunk %d starts at %q, after %q", what, ci, first, prev)
			}
			prev = chunk[len(chunk)-1].Name
		}
	}
	for _, p := range paths {
		c.PutChain(p, chain)
		check("PutChain(" + p + ")")
	}
	if n := d.kids.Len(); n != largeDir {
		t.Fatalf("%d children filed, want %d", n, largeDir)
	}
	for _, p := range paths[:largeDir/2] {
		c.Invalidate(p)
		check("Invalidate(" + p + ")")
	}
	if n := d.kids.Len(); n != largeDir/2 {
		t.Fatalf("%d children left, want %d", n, largeDir/2)
	}
	if err := c.checkTree(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheFillLargeDir files largeDir children, in random order,
// under one cached directory of an empty cache.
func BenchmarkCacheFillLargeDir(b *testing.B) {
	paths := make([]string, largeDir)
	for i, k := range rand.New(rand.NewSource(1)).Perm(largeDir) {
		paths[i] = fmt.Sprintf("/d/f%06d", k)
	}
	chain := append(chainFor("/d"), &namespace.INode{ID: 2, Name: "f"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(0)
		for _, p := range paths {
			c.PutChain(p, chain)
		}
	}
}
