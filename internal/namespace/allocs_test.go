//go:build !race

package namespace

import "testing"

// A canonical path — what every request carries — is cleaned by one scan
// and handed back as it is. (Not under -race: the detector allocates.)
func TestCleanPathAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		if p, err := CleanPath("/a/b/c/d/e/f"); p != "/a/b/c/d/e/f" || err != nil {
			t.Fatalf("CleanPath = %q, %v", p, err)
		}
	}); got != 0 {
		t.Errorf("CleanPath of a canonical depth-6 path: %v allocs, want 0", got)
	}
}
