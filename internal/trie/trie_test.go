package trie

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func comps(p string) []string {
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

func TestPutGet(t *testing.T) {
	tr := New[int]()
	tr.Put(comps("a/b/c"), 3)
	tr.Put(comps("a"), 1)
	tr.Put(nil, 0)
	if v, ok := tr.Get(comps("a/b/c")); !ok || v != 3 {
		t.Fatalf("get a/b/c = %d %v", v, ok)
	}
	if v, ok := tr.Get(nil); !ok || v != 0 {
		t.Fatalf("get root = %d %v", v, ok)
	}
	if _, ok := tr.Get(comps("a/b")); ok {
		t.Fatal("interior node without value returned ok")
	}
	if _, ok := tr.Get(comps("x")); ok {
		t.Fatal("missing path returned ok")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	tr := New[int]()
	tr.Put(comps("a"), 1)
	tr.Put(comps("a"), 2)
	if v, _ := tr.Get(comps("a")); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d after replace", tr.Len())
	}
}

func TestChain(t *testing.T) {
	tr := New[string]()
	tr.Put(nil, "/")
	tr.Put(comps("a"), "a")
	tr.Put(comps("a/b"), "b")
	vals, ok := tr.Chain(comps("a/b"))
	if !ok || len(vals) != 3 || vals[2] != "b" {
		t.Fatalf("chain = %v %v", vals, ok)
	}
	// Broken chain: missing interior value.
	tr2 := New[string]()
	tr2.Put(nil, "/")
	tr2.Put(comps("a/b"), "b") // "a" has no value
	vals, ok = tr2.Chain(comps("a/b"))
	if ok || len(vals) != 1 {
		t.Fatalf("broken chain = %v %v", vals, ok)
	}
	// Empty root.
	tr3 := New[string]()
	if vals, ok := tr3.Chain(comps("a")); ok || vals != nil {
		t.Fatalf("empty trie chain = %v %v", vals, ok)
	}
}

func TestDeletePrunes(t *testing.T) {
	tr := New[int]()
	tr.Put(comps("a/b/c"), 1)
	tr.Put(comps("a"), 2)
	if !tr.Delete(comps("a/b/c")) {
		t.Fatal("delete failed")
	}
	if tr.Delete(comps("a/b/c")) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tr.Get(comps("a")); !ok {
		t.Fatal("sibling value lost")
	}
	// Internal structure pruned: b no longer reachable.
	if n := len(tr.root.children["a"].children); n != 0 {
		t.Fatalf("pruning left %d empty descendants", n)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestDeleteKeepsDescendants(t *testing.T) {
	tr := New[int]()
	tr.Put(comps("a"), 1)
	tr.Put(comps("a/b"), 2)
	tr.Delete(comps("a"))
	if _, ok := tr.Get(comps("a/b")); !ok {
		t.Fatal("descendant deleted with ancestor")
	}
}

func TestDeletePrefix(t *testing.T) {
	tr := New[int]()
	tr.Put(comps("a"), 1)
	tr.Put(comps("a/b"), 2)
	tr.Put(comps("a/b/c"), 3)
	tr.Put(comps("a2"), 4)
	if n := tr.DeletePrefix(comps("a")); n != 3 {
		t.Fatalf("removed %d, want 3", n)
	}
	if _, ok := tr.Get(comps("a2")); !ok {
		t.Fatal("sibling with shared name prefix removed (a2 vs a)")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	if n := tr.DeletePrefix(comps("missing")); n != 0 {
		t.Fatalf("removed %d from missing prefix", n)
	}
}

func TestDeletePrefixRoot(t *testing.T) {
	tr := New[int]()
	tr.Put(nil, 0)
	tr.Put(comps("a"), 1)
	tr.Put(comps("b/c"), 2)
	if n := tr.DeletePrefix(nil); n != 3 {
		t.Fatalf("root prefix removed %d", n)
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestWalkVisitsAll(t *testing.T) {
	tr := New[int]()
	want := map[string]int{"": 0, "a": 1, "a/b": 2, "x/y/z": 3}
	for p, v := range want {
		tr.Put(comps(p), v)
	}
	got := map[string]int{}
	tr.WalkPrefix(nil, func(c []string, v int) bool {
		got[strings.Join(c, "/")] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("walk visited %v", got)
	}
	for p, v := range want {
		if got[p] != v {
			t.Fatalf("walk[%q] = %d, want %d", p, got[p], v)
		}
	}
	// Early stop.
	count := 0
	tr.WalkPrefix(nil, func([]string, int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestLenMatchesModelRandomOps(t *testing.T) {
	// Property: trie Len and membership match a flat map model under
	// random put/delete/deletePrefix sequences.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int]()
		model := map[string]int{}
		paths := make([]string, 30)
		for i := range paths {
			depth := rng.Intn(4) + 1
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = fmt.Sprintf("d%d", rng.Intn(5))
			}
			paths[i] = strings.Join(parts, "/")
		}
		for op := 0; op < 200; op++ {
			p := paths[rng.Intn(len(paths))]
			switch rng.Intn(3) {
			case 0:
				tr.Put(comps(p), op)
				model[p] = op
			case 1:
				tr.Delete(comps(p))
				delete(model, p)
			case 2:
				tr.DeletePrefix(comps(p))
				for k := range model {
					if k == p || strings.HasPrefix(k, p+"/") {
						delete(model, k)
					}
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if got, ok := tr.Get(comps(k)); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
