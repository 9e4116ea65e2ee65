//go:build !race

package childindex

import (
	"runtime"
	"testing"
)

// These tests read back what a Pool kept, so they run on one P: a
// sync.Pool hands a goroutine what it was given on the same P. (Not under
// -race: the detector drops a random share of what a sync.Pool is given.)

// TestPooledChunksComeBackEmptied: every chunk a released list gave back,
// and every smaller one its growth gave up, comes back out of the pool
// reading zero across its whole capacity, so a spare chunk pins nothing its
// list held.
func TestPooledChunksComeBackEmptied(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p Pool[*int]
	l := fill(40, &p) // grew through every class below MaxChunk's into one chunk of MaxChunk
	given := &l[0][:1][0]
	p.Release(l)
	for k := maxClass; k >= 0; k-- {
		c := p.chunk(1 << k)
		if k == maxClass && &c[:1][0] != given {
			t.Fatal("the pool did not hand back the chunk the released list gave it")
		}
		for i, e := range c[:cap(c)] {
			if e != (Entry[*int]{}) {
				t.Fatalf("a pooled chunk of class %d still holds %q at %d of %d", k, e.Name, i, cap(c))
			}
		}
	}
}

// TestRefilledListReusesReleasedChunk: a list that fills again takes the
// chunks an emptied one gave back, not new ones.
func TestRefilledListReusesReleasedChunk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p Pool[*int]
	small := fill(40, &p)
	given := &small[0][:1][0]
	p.Release(small)
	if small[0] != nil {
		t.Fatal("a released list still holds its chunk")
	}
	if again := fill(40, &p); &again[0][:1][0] != given {
		t.Error("the refilled list did not take the chunk the released one gave back")
	}
}
