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

// runs is how many times testing.AllocsPerRun(100, f) calls f: once to warm
// up, then 100 measured.
const runs = 101

// Every other wait reuses a spent waiter too (an Event's or a Mailbox's,
// given back once its source no longer lists it), a Mailbox reuses its
// receive records, and a spawn reuses its start record; a fresh Event's one
// waiter needs no list. So once warm none of these allocates.
func TestWaitAndSpawnAllocs(t *testing.T) {
	s := NewSim()
	defer s.Close()
	Run(s, func() {
		never := NewEvent(s)
		if got := testing.AllocsPerRun(100, func() { SleepOr(s, time.Millisecond, never) }); got != 0 {
			t.Errorf("a SleepOr its deadline ends: %v allocs, want 0", got)
		}

		evs := make([]*Event, runs)
		for i := range evs {
			evs[i] = NewEvent(s)
		}
		setter := NewGroup(s)
		setter.Go(func() {
			for _, ev := range evs {
				s.Sleep(time.Millisecond)
				ev.Set()
			}
		})
		i := 0
		if got := testing.AllocsPerRun(100, func() {
			if !evs[i].WaitBy(DeadlineIn(s, time.Hour)) {
				t.Error("WaitBy missed the Set")
			}
			i++
		}); got != 0 {
			t.Errorf("an Event.WaitBy a companion's Set ends: %v allocs, want 0", got)
		}
		setter.Wait()

		mb := NewMailbox[int](s)
		sender := NewGroup(s)
		sender.Go(func() {
			for v := range runs {
				s.Sleep(time.Millisecond)
				mb.Send(v)
			}
		})
		want := 0
		if got := testing.AllocsPerRun(100, func() {
			if v, ok := mb.RecvBy(DeadlineIn(s, time.Hour)); !ok || v != want {
				t.Errorf("RecvBy = (%d, %v), want (%d, true)", v, ok, want)
			}
			want++
		}); got != 0 {
			t.Errorf("a Mailbox.RecvBy a companion's Send ends: %v allocs, want 0", got)
		}
		sender.Wait()

		done := make([]*Event, runs)
		for i := range done {
			done[i] = NewEvent(s)
		}
		j := 0
		fn := func() { done[j].Set() }
		if got := testing.AllocsPerRun(100, func() {
			Go(s, fn)
			done[j].Wait()
			j++
		}); got != 0 {
			t.Errorf("a Go of a prebuilt fn joined on an Event: %v allocs, want 0", got)
		}
	})
}
