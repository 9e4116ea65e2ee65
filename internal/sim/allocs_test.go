//go:build !race

package sim

import (
	"testing"
	"time"
)

// The event loop itself allocates nothing: a callback is a stored func
// value and an event is a heap slot, so once the heap has its capacity a
// population of self-rescheduling clients runs allocation-free. (Not under
// -race: the detector allocates.)
func TestRunAllocs(t *testing.T) {
	const clients, steps = 64, 8
	s := New(clients)
	left := make([]int, clients)
	chains := make([]func(), clients)
	for i := range chains {
		chains[i] = func() {
			if left[i]--; left[i] > 0 {
				s.After(time.Duration(i%8+1)*time.Microsecond, chains[i])
			}
		}
	}
	cycle := func() {
		for i := range chains {
			left[i] = steps
			s.After(time.Duration(i%8)*time.Microsecond, chains[i])
		}
		s.Run()
	}
	cycle()
	if n := s.Executed(); n != clients*steps {
		t.Fatalf("executed %d events, want %d", n, clients*steps)
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("%d clients of %d steps each through Run: %v allocs, want 0", clients, steps, got)
	}
}
