//go:build !race

package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

// A Sleep reuses a spent waiter, so once the spare list and the run queue
// have grown a sleep allocates nothing — whether the sleeper picks itself or
// a companion due at the same instant hands the baton over on its channel.
// (Not under -race: the detector allocates.)
func TestSleepAllocs(t *testing.T) {
	s := NewSim()
	defer s.Close()
	Run(s, func() {
		if got := testing.AllocsPerRun(100, func() { s.Sleep(time.Millisecond) }); got != 0 {
			t.Errorf("a lone Sleep: %v allocs, want 0", got)
		}
		var stop atomic.Bool
		g := NewGroup(s)
		g.Go(func() {
			for !stop.Load() {
				s.Sleep(time.Millisecond)
			}
		})
		if got := testing.AllocsPerRun(100, func() { s.Sleep(time.Millisecond) }); got != 0 {
			t.Errorf("a Sleep beside a companion: %v allocs, want 0", got)
		}
		stop.Store(true)
		g.Wait()
	})
}
