package clock

import (
	"container/heap"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEventWakesAreExact: goroutines that wake each other through a
// Mailbox, an Event or a Group, thousands of times at one virtual instant,
// never let time move — a sleeper's pending 1 h deadline is not reached,
// whatever the P count — and the waits that do run into a deadline cost
// exactly one advance per distinct deadline. Run at -cpu 1,2,4.
func TestEventWakesAreExact(t *testing.T) {
	const pairs, rounds = 8, 200
	pingPong := map[string]func(s *Sim){
		"mailbox": func(s *Sim) {
			ping, pong := NewMailbox[int](s), NewMailbox[int](s)
			Go(s, func() {
				for i := 0; i < rounds; i++ {
					pong.Send(ping.Recv() + 1)
				}
			})
			for i := 0; i < rounds; i++ {
				ping.Send(i)
				if got := pong.Recv(); got != i+1 {
					t.Errorf("round %d: got %d back", i, got)
				}
			}
		},
		"event": func(s *Sim) {
			ping, pong := make([]*Event, rounds), make([]*Event, rounds)
			for i := range ping {
				ping[i], pong[i] = NewEvent(s), NewEvent(s)
			}
			Go(s, func() {
				for i := range ping {
					ping[i].Wait()
					pong[i].Set()
				}
			})
			for i := range ping {
				ping[i].Set()
				pong[i].Wait()
			}
		},
		"group": func(s *Sim) {
			g := NewGroup(s)
			for i := 0; i < rounds; i++ {
				n := 0
				g.Go(func() { n++ })
				g.Go(func() {})
				g.Wait()
				if n != 1 {
					t.Errorf("round %d: Wait returned before the goroutine had run", i)
				}
			}
		},
	}
	for name, body := range pingPong {
		t.Run(name, func(t *testing.T) {
			s := NewSim()
			defer s.Close()
			Run(s, func() {
				wake := NewEvent(s)
				sleeper := NewGroup(s)
				sleeper.Go(func() { SleepOr(s, time.Hour, wake) })
				g := NewGroup(s)
				for p := 0; p < pairs; p++ {
					g.Go(func() { body(s) })
				}
				g.Wait()
				if now, adv := s.Since(Epoch), s.Advances(); now != 0 || adv != 0 {
					t.Errorf("after %d same-instant wakes: now = Epoch+%v after %d advances, want Epoch and 0", pairs*rounds, now, adv)
				}
				// Every pair now runs into the same two deadlines.
				empty := NewMailbox[int](s)
				for p := 0; p < pairs; p++ {
					g.Go(func() {
						if _, ok := empty.RecvBy(DeadlineIn(s, time.Millisecond)); ok {
							t.Error("RecvBy received from an empty mailbox")
						}
						if NewEvent(s).WaitBy(DeadlineIn(s, 2*time.Millisecond)) {
							t.Error("WaitBy saw an event nobody set")
						}
					})
				}
				g.Wait()
				if now, adv := s.Since(Epoch), s.Advances(); now != 3*time.Millisecond || adv != 2 {
					t.Errorf("after two distinct deadlines: now = Epoch+%v after %d advances, want 3ms and 2", now, adv)
				}
				wake.Set()
				sleeper.Wait()
				if s.heapq.Len() != 0 {
					t.Errorf("%d deadlines left in the heap by waits their event satisfied", s.heapq.Len())
				}
			})
		})
	}
}

// TestEventDeadlineTie: when a wait's event and its deadline land on the
// same virtual instant, exactly one of them owns the outcome — the value is
// either received or still in the mailbox, never both or neither — and it
// is the same one every time: the receiver armed its deadline before the
// sender armed its sleep, so the deadline fires first.
func TestEventDeadlineTie(t *testing.T) {
	s := NewSim()
	defer s.Close()
	const d = 5 * time.Millisecond
	received, expired := 0, 0
	Run(s, func() {
		for i := 0; i < 300; i++ {
			mb, ev := NewMailbox[int](s), NewEvent(s)
			g := NewGroup(s)
			g.Go(func() {
				s.Sleep(d)
				mb.Send(i)
				ev.Set()
			})
			start := s.Now()
			v, ok := mb.RecvBy(DeadlineIn(s, d))
			if at := s.Since(start); at != d {
				t.Fatalf("round %d: RecvBy returned after %v, want %v either way", i, at, d)
			}
			g.Wait()
			_, left := mb.RecvBy(DeadlineIn(s, 0))
			switch {
			case ok && v == i && !left:
				received++
			case !ok && left:
				expired++
			default:
				t.Fatalf("round %d: RecvBy = (%d, %v) with the value still queued = %v", i, v, ok, left)
			}
			// A deadline in the past loses to an event already set.
			if !ev.WaitBy(DeadlineIn(s, -time.Second)) {
				t.Fatalf("round %d: WaitBy missed a set event", i)
			}
		}
	})
	if received != 0 || expired != 300 {
		t.Errorf("event won %d ties, deadline won %d; want the earlier-armed deadline to win all 300", received, expired)
	}
	// Race the two wakers by hand as well, from outside the clock, on a
	// goroutine that is really parked: one winner, and the park reports the
	// winner's outcome.
	const races = 2000
	ws := make([]waiter, races)
	for i := range ws {
		ws[i] = newWaiter(s)
	}
	outcome := make(chan bool, races)
	Go(s, func() {
		for i := range ws {
			outcome <- s.park(&ws[i], 0)
		}
	})
	for i := range ws {
		won := make(chan bool, 2)
		go func() { won <- ws[i].wake(false) }()
		go func() { won <- !ws[i].wake(true) }()
		// Each reports whether the park should read "event": the event's
		// wake won, or the deadline's lost.
		if a, b := <-won, <-won; a != b {
			t.Fatalf("race %d: event won = %v, deadline lost = %v: not exactly one winner", i, a, b)
		} else if got := <-outcome; got == a {
			t.Fatalf("race %d: park reported expired = %v, the winner was expired = %v", i, got, !a)
		}
	}
}

// TestUnregisteredWaker: a goroutine the clock does not know about (a test
// calling Stop, Close) may wake parked goroutines, and its Set, Send or
// Close starts a simulation that is standing still. The parked goroutines
// are daemons, so nobody waits their sleeps out and time does not move.
func TestUnregisteredWaker(t *testing.T) {
	s := NewSim()
	ev, mb, parked := NewEvent(s), NewMailbox[string](s), NewGroup(s)
	var got string
	var woken, cancelled bool
	daemon := func(fn func()) {
		parked.Add(1)
		GoDaemon(s, func() { defer parked.Done(); fn() })
	}
	daemon(func() { ev.Wait(); woken = true })
	daemon(func() { got = mb.Recv() })
	daemon(func() { cancelled = !SleepOr(s, time.Hour, ev) })
	asleep := make(chan struct{})
	GoDaemon(s, func() { s.Sleep(2 * time.Hour); close(asleep) })
	ev.Set()
	mb.Send("hello")
	Run(s, parked.Wait)
	if !woken || !cancelled || got != "hello" {
		t.Errorf("woken = %v, cancelled = %v, got = %q", woken, cancelled, got)
	}
	select {
	case <-asleep:
		t.Fatal("the 2h sleep ended with nobody alive to wait it out")
	default:
	}
	s.Close() // wakes the sleeper as if its deadline had come
	<-asleep
	if now := s.Since(Epoch); now != 0 {
		t.Errorf("time moved to Epoch+%v", now)
	}
}

// TestIdleJoinOnOneP covers the compatibility path benchmark/ still uses:
// a raw WaitGroup join inside Idle. Its wake is not clock-owned, so it is
// only promised on one P.
func TestIdleJoinOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSim()
	defer s.Close()
	var total time.Duration
	Run(s, func() {
		for phase := 0; phase < 20; phase++ {
			var wg sync.WaitGroup
			for a := 1; a <= 4; a++ {
				wg.Add(1)
				Go(s, func() {
					defer wg.Done()
					s.Sleep(time.Duration(a) * time.Millisecond)
				})
			}
			Idle(s, wg.Wait)
		}
		total = s.Since(Epoch)
	})
	if total != 20*4*time.Millisecond {
		t.Fatalf("20 phases of a 4ms-longest actor took %v, want 80ms", total)
	}
}

// TestIdleJoinMatchesGroupJoin: an Idle join over a raw WaitGroup ends
// every phase at the instant a Group join does, and the two runs make the
// same number of advances. Each actor's last act before its deferred Done
// is a fire-and-forget spawn, so its return finds the run queue non-empty
// and the grace has to wait for the next empty-queue advance; a 50µs daemon
// ticker keeps deadlines due at the instants actors return.
func TestIdleJoinMatchesGroupJoin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const phases, actors, rounds = 50, 16, 20
	rng := rand.New(rand.NewSource(1))
	naps := make([]time.Duration, phases*actors*rounds)
	for i := range naps {
		naps[i] = time.Duration(50_000 + rng.Intn(100_001))
	}
	run := func(join func(s *Sim, actors []func())) (joins []time.Duration, advances uint64) {
		s := NewSim()
		defer s.Close()
		Run(s, func() {
			stop := NewEvent(s)
			GoDaemon(s, func() {
				for SleepOr(s, 50*time.Microsecond, stop) {
				}
			})
			for p := 0; p < phases; p++ {
				fns := make([]func(), actors)
				for a := range fns {
					mine := naps[(p*actors+a)*rounds:][:rounds]
					fns[a] = func() {
						reply := NewMailbox[struct{}](s)
						for _, d := range mine {
							Go(s, func() {
								s.Sleep(d)
								reply.Send(struct{}{})
							})
							reply.Recv()
						}
						Go(s, func() { s.Sleep(10 * time.Microsecond) })
					}
				}
				join(s, fns)
				joins = append(joins, s.Since(Epoch))
			}
			// Read before the last phase's fire-and-forget sleepers
			// move time on behind Run's return.
			advances = s.Advances()
			stop.Set()
		})
		return joins, advances
	}
	idleJoins, idleAdvances := run(func(s *Sim, fns []func()) {
		var wg sync.WaitGroup
		for _, fn := range fns {
			wg.Add(1)
			Go(s, func() {
				defer wg.Done()
				fn()
			})
		}
		Idle(s, wg.Wait)
	})
	groupJoins, groupAdvances := run(func(s *Sim, fns []func()) {
		g := NewGroup(s)
		for _, fn := range fns {
			g.Go(fn)
		}
		g.Wait()
	})
	for p := range groupJoins {
		if idleJoins[p] != groupJoins[p] {
			t.Fatalf("phase %d: Idle join at %v, Group join at %v", p, idleJoins[p], groupJoins[p])
		}
	}
	if idleAdvances != groupAdvances {
		t.Fatalf("Idle joins took %d advances, Group joins %d", idleAdvances, groupAdvances)
	}
}

// TestMailboxQueueAndOffer: values nobody is parked for queue first in
// first out; Offer delivers only to a receiver already parked and drops the
// value otherwise; a receive that gives up leaves nothing behind.
func TestMailboxQueueAndOffer(t *testing.T) {
	s := NewSim()
	defer s.Close()
	Run(s, func() {
		mb := NewMailbox[int](s)
		mb.Send(1)
		mb.Send(2)
		if a, b := mb.Recv(), mb.Recv(); a != 1 || b != 2 {
			t.Fatalf("received %d, %d; want FIFO 1, 2", a, b)
		}
		if mb.Offer(3) {
			t.Fatal("Offer found a receiver on an idle mailbox")
		}
		if v, ok := mb.RecvBy(DeadlineIn(s, time.Second)); ok {
			t.Fatalf("RecvBy = %d: the refused offer was queued", v)
		}
		var v int
		var ok bool
		receiver := NewGroup(s)
		receiver.Go(func() { v, ok = mb.RecvBy(DeadlineIn(s, time.Second)) })
		s.Sleep(time.Millisecond) // the receiver is parked by now
		if !mb.Offer(4) {
			t.Fatal("Offer missed a parked receiver")
		}
		receiver.Wait()
		if !ok || v != 4 {
			t.Fatalf("RecvBy = (%d, %v), want the offered 4", v, ok)
		}
		if now := s.Since(Epoch); now != time.Second+time.Millisecond {
			t.Fatalf("now = Epoch+%v: a deadline its value beat still cost an advance", now)
		}
	})
}

// TestLateWakerMissesReusedWaiter: a waiter goes back to the pool only once
// no source lists it and no waker can still reach it. Each round an
// unregistered goroutine's Set (even rounds) or Offer (odd rounds) races the
// deadline of a wait on that source — the deadline fired by hand, as the
// clock's next would, once the waker has begun (a daemon's deadline does
// not move time) — and the waiter's next wait, a receive that only the
// round's own Send may end, must never be woken by the late waker instead.
// Claimed waiters listed ahead of the racing one stretch the waker's walk
// over the list, so a waker that walked it outside the source's lock would
// reach the waiter after the deadline's winner had reused it. Run at
// -cpu 1,2,4.
func TestLateWakerMissesReusedWaiter(t *testing.T) {
	s := NewSim()
	defer s.Close()
	const races, ahead = 2000, 256
	evs, mbs := make([]*Event, races), make([]*Mailbox[int], races)
	for i := range evs {
		evs[i], mbs[i] = NewEvent(s), NewMailbox[int](s)
	}
	claimed, claimedRecvs := make([]*waiter, ahead), make([]*recv[int], ahead)
	for i := range claimed {
		w := newWaiter(s)
		w.claimed.Store(true)
		claimed[i], claimedRecvs[i] = &w, &recv[int]{w: &w}
	}
	next := NewMailbox[int](s)
	type result struct {
		woke     bool // the source's wake won the race
		got, nxt int  // what the racing receive and the next wait received
	}
	outcome := make(chan result, races)
	GoDaemon(s, func() {
		for i := 0; i < races; i++ {
			var r result
			if i%2 == 0 {
				r.woke = evs[i].WaitBy(DeadlineIn(s, time.Hour))
			} else {
				r.got, r.woke = mbs[i].RecvBy(DeadlineIn(s, time.Hour))
			}
			r.nxt = next.Recv()
			outcome <- r
		}
	})
	armed := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.heapq) == 1
	}
	fire := func() {
		s.mu.Lock()
		if len(s.heapq) > 0 {
			s.wakeLocked(heap.Pop(&s.heapq).(*waiter), true)
		}
		s.mu.Unlock()
	}
	for i := 0; i < races; i++ {
		for !armed() {
			runtime.Gosched()
		}
		var offered bool
		waker := func() { evs[i].Set() }
		if i%2 == 0 {
			ev := evs[i]
			ev.mu.Lock()
			ev.waiters = append(slices.Clone(claimed), ev.waiters...)
			ev.mu.Unlock()
		} else {
			mb := mbs[i]
			mb.mu.Lock()
			mb.recvs = append(slices.Clone(claimedRecvs), mb.recvs...)
			mb.mu.Unlock()
			waker = func() { offered = mb.Offer(i) }
		}
		var wg sync.WaitGroup
		var begun atomic.Bool
		wg.Add(2)
		go func() { defer wg.Done(); begun.Store(true); waker() }()
		go func() {
			defer wg.Done()
			for !begun.Load() {
				runtime.Gosched()
			}
			fire()
		}()
		wg.Wait()
		next.Send(i + 1)
		r := <-outcome
		if r.nxt != i+1 {
			t.Fatalf("round %d: the next wait received %d, want %d: a late waker woke a reused waiter", i, r.nxt, i+1)
		}
		if i%2 == 1 && (r.woke != offered || r.woke && r.got != i) {
			t.Fatalf("round %d: RecvBy = (%d, %v), Offer delivered = %v", i, r.got, r.woke, offered)
		}
	}
}

// TestEventReset: a reset event is unset again — a wait on it runs to its
// deadline — and the next Set wakes a waiter parked on it as on a new one.
func TestEventReset(t *testing.T) {
	s := NewSim()
	defer s.Close()
	Run(s, func() {
		ev := NewEvent(s)
		ev.Set()
		ev.Reset()
		if ev.IsSet() || ev.WaitBy(DeadlineIn(s, time.Millisecond)) {
			t.Fatal("a reset event still reads set")
		}
		g := NewGroup(s)
		g.Go(func() {
			s.Sleep(time.Millisecond)
			ev.Set()
		})
		start := s.Now()
		if !ev.WaitBy(DeadlineIn(s, time.Hour)) || s.Since(start) != time.Millisecond {
			t.Errorf("a wait on a reset event ended after %v, want the Set's 1ms", s.Since(start))
		}
		g.Wait()
	})
}
