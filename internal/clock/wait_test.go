package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleBusy waits for goroutines that have returned from their last
// clock call to finish unregistering, and returns the busy count.
func settleBusy(s *Sim, want int64) int64 {
	for i := 0; s.busy.Load() != want && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	return s.busy.Load()
}

// TestEventWakesAreExact: goroutines that wake each other through a
// Mailbox, an Event or a Group, thousands of times at one virtual instant,
// never let time move — a sleeper's pending 1 h deadline is not reached,
// whatever the P count — and the waits that do run into a deadline cost
// exactly one advance per distinct deadline. Run at -cpu 1,2.
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
			if b := settleBusy(s, 0); b != 0 {
				t.Errorf("busy = %d after the run, want 0", b)
			}
		})
	}
}

// TestEventDeadlineTie: when a wait's event and its deadline land on the
// same virtual instant, exactly one of them owns the outcome — the value is
// either received or still in the mailbox, never both or neither — and the
// busy count comes back whole.
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
			if b := s.busy.Load(); b < 1 || b > 2 { // this goroutine, and the sender while it unregisters
				t.Fatalf("round %d: busy = %d", i, b)
			}
		}
	})
	t.Logf("event won %d ties, deadline won %d", received, expired)
	if b := settleBusy(s, 0); b != 0 {
		t.Errorf("busy = %d after the run, want 0", b)
	}
	// On the Sim the deadline nearly always gets there first, so race the
	// two wakers by hand as well: one winner, one token.
	for i := 0; i < 2000; i++ {
		w := newWaiter()
		won := make(chan bool, 2)
		go func() { won <- w.wake(s, false) }()
		go func() { won <- w.wake(s, true) }()
		if a, b := <-won, <-won; a == b {
			t.Fatalf("race %d: both wakers report won = %v", i, a)
		}
		<-w.ch
		if b := s.busy.Load(); b != int64(i+1) {
			t.Fatalf("race %d: busy = %d, want one token per waiter woken", i, b)
		}
	}
}

// TestUnregisteredWaker: a goroutine the clock does not know about (a test
// calling Stop, Close) may wake parked goroutines; the token it hands over
// is the parked goroutine's own, so the count stays balanced.
func TestUnregisteredWaker(t *testing.T) {
	s := NewSim()
	s.busy.Add(1) // pin the clock: the sleeps below must not be waited out
	ev, mb, parked := NewEvent(s), NewMailbox[string](s), NewGroup(s)
	var got string
	var woken, cancelled bool
	parked.Go(func() { ev.Wait(); woken = true })
	parked.Go(func() { got = mb.Recv() })
	parked.Go(func() { cancelled = !SleepOr(s, time.Hour, ev) })
	asleep := make(chan struct{})
	Go(s, func() { s.Sleep(2 * time.Hour); close(asleep) })
	if b := settleBusy(s, 1); b != 1 {
		t.Fatalf("busy = %d with every goroutine parked, want only the pin", b)
	}
	ev.Set()
	mb.Send("hello")
	Run(s, parked.Wait)
	if !woken || !cancelled || got != "hello" {
		t.Errorf("woken = %v, cancelled = %v, got = %q", woken, cancelled, got)
	}
	s.Close() // wakes the sleeper as if its deadline had come
	<-asleep
	s.busy.Add(-1)
	if b := settleBusy(s, 0); b != 0 {
		t.Errorf("busy = %d after Close, want 0", b)
	}
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

// TestWaitsOnOtherClocks: off the Sim the primitives are channels and
// timers with the same outcomes — a virtual deadline follows the clock, a
// host deadline the wall.
func TestWaitsOnOtherClocks(t *testing.T) {
	m := NewManual()
	mb := NewMailbox[int](m)
	mb.Send(1)
	mb.Send(2)
	if a, b := mb.Recv(), mb.Recv(); a != 1 || b != 2 {
		t.Fatalf("received %d, %d; want FIFO 1, 2", a, b)
	}
	if mb.Offer(3) {
		t.Fatal("Offer found a receiver on an idle mailbox")
	}
	type res struct {
		v  int
		ok bool
	}
	out := make(chan res)
	go func() { v, ok := mb.RecvBy(DeadlineIn(m, time.Second)); out <- res{v, ok} }()
	for m.Waiters() == 0 {
		runtime.Gosched()
	}
	m.Advance(time.Second)
	if r := <-out; r.ok {
		t.Fatalf("RecvBy = %v after its virtual deadline passed on an empty mailbox", r)
	}
	go func() { v, ok := mb.RecvBy(DeadlineIn(m, time.Second)); out <- res{v, ok} }()
	for !mb.Offer(4) {
		runtime.Gosched()
	}
	if r := <-out; !r.ok || r.v != 4 {
		t.Fatalf("RecvBy = %v, want the offered 4", r)
	}

	z := NewScaled(0) // virtual deadlines expire at once here; host deadlines must not
	ev := NewEvent(z)
	start := time.Now()
	if ev.WaitBy(HostDeadlineIn(z, 20*time.Millisecond)) {
		t.Fatal("WaitBy saw an event nobody set")
	}
	if real := time.Since(start); real < 20*time.Millisecond {
		t.Fatalf("a host deadline on a zero-scale clock expired after %v, want 20ms of wall time", real)
	}
	g := NewGroup(z)
	g.Go(ev.Set)
	g.Wait()
	if !ev.WaitBy(HostDeadlineIn(z, time.Hour)) || !ev.IsSet() {
		t.Fatal("event not set after the goroutine that sets it was joined")
	}
}
