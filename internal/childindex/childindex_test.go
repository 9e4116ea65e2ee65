package childindex

import (
	"fmt"
	"testing"
)

// TestPoolRecyclesWithinBound: chunks a released list gives back are kept
// emptied, by capacity, and are the ones the next list that fills takes;
// the pool never keeps more capacity than the lists still in use hold, so
// releasing the last of them leaves it empty.
func TestPoolRecyclesWithinBound(t *testing.T) {
	var p Pool[*int]
	fill := func(n int) List[*int] {
		var l List[*int]
		for i := 0; i < n; i++ {
			v := i
			l = l.Insert(NewEntry(fmt.Sprintf("n%04d", i), &v), &p)
		}
		return l
	}
	capacity := func(l List[*int]) int {
		c := 0
		for _, chunk := range l {
			c += cap(chunk)
		}
		return c
	}
	big, small := fill(500), fill(40)
	if live, held := p.Stats(); live != capacity(big)+capacity(small) || held > live {
		t.Fatalf("two lists of %d and %d capacity: pool counts %d live, %d held", capacity(big), capacity(small), live, held)
	}
	given := &small[0][:1][0]
	p.Release(small)
	if small[0] != nil {
		t.Fatal("a released list still holds its chunk")
	}
	if live, held := p.Stats(); live != capacity(big) || held == 0 || held > live {
		t.Fatalf("after releasing the small list: %d live (want %d), %d held (want some, at most live)", live, capacity(big), held)
	}
	for k, spare := range p.spare {
		for _, chunk := range spare {
			if len(chunk) != 0 || cap(chunk) != 1<<k {
				t.Fatalf("class %d keeps a chunk of %d entries, capacity %d", k, len(chunk), cap(chunk))
			}
			for _, e := range chunk[:cap(chunk)] {
				if e != (Entry[*int]{}) {
					t.Fatalf("a spare chunk still holds %q", e.Name)
				}
			}
		}
	}
	again := fill(40)
	if &again[0][:1][0] != given {
		t.Error("the refilled list did not take the chunk the released one gave back")
	}
	p.Release(big)
	if live, held := p.Stats(); live != capacity(again) || held > live {
		t.Fatalf("after releasing the big list: %d live (want %d), %d held: want no more than live", live, capacity(again), held)
	}
	p.Release(again)
	if live, held := p.Stats(); live != 0 || held != 0 {
		t.Fatalf("with every list released the pool holds %d of %d: want nothing", held, live)
	}
}
