package namespace

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"/", "/", true},
		{"//", "/", true},
		{"/a", "/a", true},
		{"/a/", "/a", true},
		{"//a//b///c", "/a/b/c", true},
		{"", "", false},
		{"a/b", "", false},
		{"/a/./b", "", false},
		{"/a/../b", "", false},
	}
	for _, c := range cases {
		got, err := CleanPath(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("CleanPath(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("CleanPath(%q) succeeded, want error", c.in)
		}
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		comps := make([]string, 0, len(raw))
		for _, r := range raw {
			r = strings.Map(func(c rune) rune {
				if c == '/' || c == 0 {
					return 'x'
				}
				return c
			}, r)
			if r != "" && r != "." && r != ".." {
				comps = append(comps, r)
			}
		}
		p := "/"
		for _, c := range comps {
			p = JoinPath(p, c)
		}
		got := SplitPath(p)
		if len(got) != len(comps) {
			return false
		}
		for i := range got {
			if got[i] != comps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParentBase(t *testing.T) {
	cases := []struct{ p, parent, base string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c.txt", "/a/b", "c.txt"},
	}
	for _, c := range cases {
		if got := ParentPath(c.p); got != c.parent {
			t.Errorf("ParentPath(%q) = %q, want %q", c.p, got, c.parent)
		}
		if got := BaseName(c.p); got != c.base {
			t.Errorf("BaseName(%q) = %q, want %q", c.p, got, c.base)
		}
	}
}

func TestHasPathPrefix(t *testing.T) {
	cases := []struct {
		path, prefix string
		want         bool
	}{
		{"/a/b", "/a", true},
		{"/a", "/a", true},
		{"/ab", "/a", false},
		{"/a/b", "/", true},
		{"/", "/", true},
		{"/x/y", "/a", false},
	}
	for _, c := range cases {
		if got := HasPathPrefix(c.path, c.prefix); got != c.want {
			t.Errorf("HasPathPrefix(%q, %q) = %v", c.path, c.prefix, got)
		}
	}
}

func TestAncestors(t *testing.T) {
	got := Ancestors("/a/b/c")
	want := []string{"/", "/a", "/a/b"}
	if len(got) != len(want) {
		t.Fatalf("Ancestors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ancestors = %v, want %v", got, want)
		}
	}
	if Ancestors("/") != nil {
		t.Fatal("Ancestors of root should be nil")
	}
}

// TestINodeClone: a clone is the original's private copy under the rule a
// Block is never written in place — its own scalars, a block list it may
// replace or append to without reaching the original, and nothing copied
// that no one writes.
func TestINodeClone(t *testing.T) {
	blocks := make([]Block, 1, 4) // spare capacity: an unclipped append would write into it
	blocks[0] = Block{ID: 1, Size: 64, Locations: []string{"dn1", "dn2"}}
	n := &INode{ID: 7, ParentID: 1, Name: "f", Size: 64, Blocks: blocks}
	c := n.Clone()
	c.Name, c.Size, c.ParentID, c.SubtreeLockOwner = "other", 128, 9, "nn"
	if n.Name != "f" || n.Size != 64 || n.ParentID != 1 || n.SubtreeLockOwner != "" {
		t.Fatalf("a scalar write to the clone reached the original: %+v", n)
	}
	c.Blocks = append(c.Blocks, Block{ID: 2, Size: 32})
	if len(n.Blocks) != 1 || blocks[:2][1].ID != 0 {
		t.Fatalf("an append to the clone's blocks reached the original: %+v", blocks[:2])
	}
	if &c.Blocks[0] == &n.Blocks[0] {
		t.Fatal("the clone's append did not reallocate its block list")
	}
	if c.Blocks[0].ID != 1 || len(c.Blocks[0].Locations) != 2 {
		t.Fatalf("the clone lost the original's blocks: %+v", c.Blocks)
	}
	if n.Clone().Blocks == nil || (&INode{}).Clone().Blocks != nil {
		t.Fatal("Clone changed whether the block list is nil")
	}
	if (*INode)(nil).Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

// CloneBlocksInto is CloneBlocks wherever the copy lands: equal to the
// source, nil and empty kept apart, and sharing nothing with the source or
// — through an append — with its neighbours in the caller's storage.
func TestCloneBlocksInto(t *testing.T) {
	source := func() []Block {
		return []Block{
			{ID: 1, Locations: []string{"a", "b"}},
			{ID: 2, Locations: []string{}},
			{ID: 3},
			{ID: 4, Locations: []string{"c", "d", "e"}},
		}
	}
	same := func(a, b Block) bool {
		return a.ID == b.ID && (a.Locations == nil) == (b.Locations == nil) && slices.Equal(a.Locations, b.Locations)
	}
	src := source()
	for _, c := range []struct {
		what   string
		blocks []Block
		locs   []string
	}{
		{"no storage", nil, nil},
		{"room for every block and location", make([]Block, 4), make([]string, 5)},
		{"room for one block and one location", make([]Block, 1), make([]string, 1)},
	} {
		for _, in := range [][]Block{nil, {}, src, src[:1], src[3:]} {
			out := CloneBlocksInto(in, c.blocks, c.locs)
			if (out == nil) != (in == nil) || !slices.EqualFunc(out, in, same) {
				t.Fatalf("%s: CloneBlocksInto(%v) = %v", c.what, in, out)
			}
			for i := range out {
				out[i].ID = 0
				for j := range out[i].Locations {
					out[i].Locations[j] = "scribbled"
				}
			}
			if !slices.EqualFunc(src, source(), same) {
				t.Fatalf("%s: the copy aliases its source: %v", c.what, src)
			}
			out = CloneBlocksInto(in, c.blocks, c.locs)
			for i := range out {
				out[i].Locations = append(out[i].Locations, "appended")
			}
			for i := range out {
				if !slices.Equal(out[i].Locations[:len(in[i].Locations)], in[i].Locations) {
					t.Fatalf("%s: an append to one block's locations reached another's: %v", c.what, out)
				}
			}
		}
	}
}

func TestINodeApproxBytesPositive(t *testing.T) {
	n := NewRoot()
	if n.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes must be positive")
	}
	big := &INode{Name: strings.Repeat("x", 100)}
	if big.ApproxBytes() <= n.ApproxBytes() {
		t.Fatal("larger names must cost more bytes")
	}
}

func TestOpTypeClassification(t *testing.T) {
	writes := map[OpType]bool{OpCreate: true, OpMkdirs: true, OpDelete: true, OpMv: true}
	for op := OpType(0); int(op) < NumOps; op++ {
		if op.IsWrite() != writes[op] {
			t.Errorf("%v IsWrite = %v", op, op.IsWrite())
		}
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("missing name for %d", op)
		}
	}
}

func TestErrorWireRoundTrip(t *testing.T) {
	for _, e := range wireErrors {
		if got := FromWire(ToWire(e)); !errors.Is(got, e) {
			t.Errorf("round trip lost %v (got %v)", e, got)
		}
	}
	if FromWire("") != nil {
		t.Fatal("empty wire error should be nil")
	}
	if got := FromWire("custom failure"); got == nil || got.Error() != "custom failure" {
		t.Fatal("custom errors must survive")
	}
	var resp Response
	if !resp.OK() || resp.Error() != nil {
		t.Fatal("empty response should be OK")
	}
	resp.Err = ToWire(ErrNotFound)
	if resp.OK() || !errors.Is(resp.Error(), ErrNotFound) {
		t.Fatal("response error mapping failed")
	}
}

func TestRequestKeyUnique(t *testing.T) {
	a := Request{ClientID: "c1", Seq: 1}
	b := Request{ClientID: "c1", Seq: 2}
	c := Request{ClientID: "c2", Seq: 1}
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Fatal("request keys collide")
	}
}

// FuzzCleanPath holds CleanPath to its contract on any input: what it
// returns is canonical and cleans to itself, and wherever the one-scan fast
// path takes an input as canonical, splitting and rejoining it gives that
// same string. On every clean output the path helpers agree with folding
// JoinPath over SplitPath from the root: the fold gives the path back, its
// last step is ParentPath and BaseName, and its earlier steps are
// Ancestors. The non-allocating walk (Walk, Next, Len, Dir) and AppendSplit
// give exactly SplitPath's components. The seed corpus is
// testdata/fuzz/FuzzCleanPath.
func FuzzCleanPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string) {
		got, err := CleanPath(p)
		if joined, jerr := joinClean(p); got != joined || (err == nil) != (jerr == nil) {
			t.Fatalf("CleanPath(%q) = %q, %v; split and rejoined: %q, %v", p, got, err, joined, jerr)
		}
		if err != nil {
			return
		}
		if got != "/" {
			if got[0] != '/' {
				t.Fatalf("CleanPath(%q) = %q: not absolute", p, got)
			}
			for _, c := range strings.Split(got[1:], "/") {
				if c == "" || c == "." || c == ".." {
					t.Fatalf("CleanPath(%q) = %q: component %q", p, got, c)
				}
			}
		}
		if again, err := CleanPath(got); again != got || err != nil {
			t.Fatalf("CleanPath(%q) = %q, but CleanPath(%q) = %q, %v", p, got, got, again, err)
		}
		if canonical(p) && got != p {
			t.Fatalf("the fast path took %q as canonical, but it cleans to %q", p, got)
		}
		var prefixes []string
		fold, parent, base := "/", "/", ""
		for _, c := range SplitPath(got) {
			prefixes = append(prefixes, fold)
			fold, parent, base = JoinPath(fold, c), fold, c
		}
		if fold != got || ParentPath(got) != parent || BaseName(got) != base || !slices.Equal(Ancestors(got), prefixes) {
			t.Fatalf("%q: folding JoinPath over SplitPath gives %q, parent %q, base %q, ancestors %q; "+
				"ParentPath %q, BaseName %q, Ancestors %q",
				got, fold, parent, base, prefixes, ParentPath(got), BaseName(got), Ancestors(got))
		}
		comps := SplitPath(got)
		if appended := AppendSplit([]string{"x"}, got); !slices.Equal(appended[1:], comps) || appended[0] != "x" {
			t.Fatalf("%q: AppendSplit after one element gives %q, SplitPath %q", got, appended, comps)
		}
		if walked, n := walkAll(Walk(got)); !slices.Equal(walked, comps) || n != len(comps) {
			t.Fatalf("%q: Walk gives %q (Len %d), SplitPath %q", got, walked, n, comps)
		}
		dir, last, ok := Walk(got).Dir()
		if walked, n := walkAll(dir); ok != (got != "/") || last != base || !slices.Equal(walked, SplitPath(parent)) || n != len(walked) {
			t.Fatalf("%q: Dir gives %q (Len %d), %q, %v; want SplitPath(%q) = %q and %q",
				got, walked, n, last, ok, parent, SplitPath(parent), base)
		}
	})
}

// walkAll returns what cs walks and the Len it reported before the walk.
func walkAll(cs Components) (comps []string, n int) {
	n = cs.Len()
	for c, ok := cs.Next(); ok; c, ok = cs.Next() {
		comps = append(comps, c)
	}
	return comps, n
}
