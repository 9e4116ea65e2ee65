//go:build !race

package namespace

import "testing"

// A canonical path — what every request carries — is cleaned by one scan
// and handed back as it is, and split into a caller's buffer. (Not under
// -race: the detector allocates.)
func TestCleanPathAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		if p, err := CleanPath("/a/b/c/d/e/f"); p != "/a/b/c/d/e/f" || err != nil {
			t.Fatalf("CleanPath = %q, %v", p, err)
		}
	}); got != 0 {
		t.Errorf("CleanPath of a canonical depth-6 path: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		var buf [8]string
		if comps := AppendSplit(buf[:0], "/a/b/c/d/e/f"); len(comps) != 6 || comps[5] != "f" {
			t.Fatalf("AppendSplit gave %d components", len(comps)) // not comps: that would move buf to the heap
		}
	}); got != 0 {
		t.Errorf("AppendSplit of a clean depth-6 path into a stack buffer: %v allocs, want 0", got)
	}
}
