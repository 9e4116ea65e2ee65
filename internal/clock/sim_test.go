package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSimExactDurations: the discrete-event clock must deliver *exact*
// virtual durations regardless of concurrency — this is the property the
// benchmark harness depends on (host timers are far too coarse; see the
// package comment).
func TestSimExactDurations(t *testing.T) {
	for _, sleepers := range []int{1, 64, 1024} {
		s := NewSim()
		const virtual = 300 * time.Microsecond
		const rounds = 20
		var wg sync.WaitGroup
		var worst atomic.Int64
		for g := 0; g < sleepers; g++ {
			wg.Add(1)
			Go(s, func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					start := s.Now()
					s.Sleep(virtual)
					d := s.Since(start)
					if int64(d) > worst.Load() {
						worst.Store(int64(d))
					}
					if d < virtual {
						t.Errorf("slept only %v", d)
					}
				}
			})
		}
		wg.Wait()
		s.Close()
		if w := time.Duration(worst.Load()); w != virtual {
			t.Fatalf("sleepers=%d: worst sleep %v, want exactly %v", sleepers, w, virtual)
		}
	}
}

func TestSimOrderedWakeups(t *testing.T) {
	s := NewSim()
	defer s.Close()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	for i, d := range durations {
		i, d := i, d
		wg.Add(1)
		Go(s, func() {
			defer wg.Done()
			s.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("wake order = %v, want [1 2 0]", order)
	}
	if got := s.Since(Epoch); got != 30*time.Millisecond {
		t.Fatalf("final virtual time = %v", got)
	}
}

func TestSimComputeTakesNoVirtualTime(t *testing.T) {
	s := NewSim()
	defer s.Close()
	var elapsed time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	Go(s, func() {
		defer wg.Done()
		start := s.Now()
		// Pure compute between sleeps.
		x := 0
		for i := 0; i < 1_000_000; i++ {
			x += i
		}
		_ = x
		s.Sleep(time.Millisecond)
		elapsed = s.Since(start)
	})
	wg.Wait()
	if elapsed != time.Millisecond {
		t.Fatalf("compute leaked into virtual time: %v", elapsed)
	}
}

func TestSimIdleAllowsAdvance(t *testing.T) {
	s := NewSim()
	defer s.Close()
	ch := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	// Goroutine A waits on a channel (idle); goroutine B sleeps then
	// signals. Time must advance despite A being blocked.
	Go(s, func() {
		defer wg.Done()
		Idle(s, func() { <-ch })
	})
	Go(s, func() {
		defer wg.Done()
		s.Sleep(5 * time.Millisecond)
		ch <- struct{}{}
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation deadlocked: Idle did not put the baton down")
	}
}

// TestSimCloseWakesSleepers: nothing alive is waiting the hour out, so the
// clock stands still on the daemon's deadline; Close must still release it.
func TestSimCloseWakesSleepers(t *testing.T) {
	s := NewSim()
	released := make(chan struct{})
	GoDaemon(s, func() {
		s.Sleep(time.Hour)
		close(released)
	})
	time.Sleep(10 * time.Millisecond)
	select {
	case <-released:
		t.Fatal("time moved for a daemon alone")
	default:
	}
	s.Close()
	s.Close() // idempotent
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake pending sleepers")
	}
	if now := s.Since(Epoch); now != 0 {
		t.Fatalf("Close moved time to Epoch+%v; it wakes sleepers where the clock stands", now)
	}
}

// TestSleepOr: a cancellable sleep runs its course exactly like Sleep and
// returns at the cancel instant when cancelled; the sleeps that follow a
// cancellation, including the one that passes the cancelled deadline, are
// still exact, and the cancelled deadline costs no advance of its own.
func TestSleepOr(t *testing.T) {
	s := NewSim()
	defer s.Close()
	cancel := NewEvent(s)
	var full, cut, after time.Duration
	var fullOK, cutOK bool
	Run(s, func() {
		g := NewGroup(s)
		g.Go(func() {
			fullOK = SleepOr(s, 3*time.Millisecond, cancel)
			full = s.Since(Epoch)
		})
		g.Go(func() {
			cutOK = SleepOr(s, 50*time.Millisecond, cancel)
			cut = s.Since(Epoch)
		})
		s.Sleep(7 * time.Millisecond)
		cancel.Set()
		g.Wait()
		for i := 0; i < 100; i++ {
			s.Sleep(time.Millisecond) // crosses the cancelled 50ms deadline
		}
		after = s.Since(Epoch)
	})
	if !fullOK || full != 3*time.Millisecond {
		t.Errorf("uncancelled SleepOr = %v at %v, want true at 3ms", fullOK, full)
	}
	if cutOK || cut != 7*time.Millisecond {
		t.Errorf("cancelled SleepOr = %v at %v, want false at the cancel instant 7ms", cutOK, cut)
	}
	if after != 107*time.Millisecond {
		t.Errorf("100 × 1ms after the cancellation ended at %v, want 107ms", after)
	}
	if got := s.Advances(); got != 102 { // 3ms, 7ms, 100 × 1ms — and nothing at 50ms
		t.Errorf("%d advances, want 102: one per distinct deadline that was waited out", got)
	}
	// Cancelled beforehand: no sleep at all.
	if SleepOr(s, time.Hour, cancel) {
		t.Error("SleepOr slept through a cancel already set")
	}
}

// TestGoexitHandsBatonOn: a clock goroutine whose fn ends in
// runtime.Goexit (a t.Fatal inside a Group member) still hands the baton
// on and stops counting as alive. Without that the sibling's deadline is
// never reached and the watchdog fires after StallTimeout.
func TestGoexitHandsBatonOn(t *testing.T) {
	s := NewSim()
	defer s.Close()
	var siblingAt, end time.Duration
	Run(s, func() {
		g := NewGroup(s)
		g.Go(func() {
			s.Sleep(2 * time.Millisecond)
			runtime.Goexit()
		})
		g.Go(func() {
			s.Sleep(5 * time.Millisecond)
			siblingAt = s.Since(Epoch)
		})
		g.Wait()
		s.Sleep(3 * time.Millisecond)
		end = s.Since(Epoch)
	})
	if siblingAt != 5*time.Millisecond || end != 8*time.Millisecond {
		t.Fatalf("sibling woke at %v, caller ended at %v; want 5ms and 8ms", siblingAt, end)
	}
}

// TestCloseReleasesParkedGoroutines: the goroutines parked between spawns
// exit on Close, and one whose fn returns after Close exits instead of
// parking, so a closed Sim leaves no goroutine behind.
func TestCloseReleasesParkedGoroutines(t *testing.T) {
	// settle waits for goroutines that are exiting to finish unwinding and
	// returns the count, or the count after 5s if it never falls to want.
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	time.Sleep(20 * time.Millisecond) // earlier tests' goroutines finish unwinding
	base := runtime.NumGoroutine()
	s := NewSim()
	const spawns = 64
	Run(s, func() {
		g := NewGroup(s)
		for range spawns {
			g.Go(func() { s.Sleep(time.Millisecond) })
		}
		g.Wait()
	})
	if n := runtime.NumGoroutine(); n < base+spawns {
		t.Fatalf("%d goroutines after %d concurrent spawns returned, want at least %d parked for reuse", n, spawns, base+spawns)
	}
	s.Close()
	if n := settle(base); n > base {
		t.Fatalf("%d goroutines before the Sim, %d after Close", base, n)
	}
	ran := false
	Run(s, func() { ran = true })
	if !ran {
		t.Fatal("a Run after Close did not run its fn")
	}
	if n := settle(base); n > base {
		t.Fatalf("%d goroutines before the Sim, %d after a Run on the closed Sim", base, n)
	}
}

func TestSimManyEventsThroughput(t *testing.T) {
	// Smoke-check event processing rate: 50k sleep events must finish
	// well under the stall timeout.
	s := NewSim()
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 50; g++ {
		wg.Add(1)
		Go(s, func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Sleep(time.Duration(1+i%7) * time.Microsecond)
			}
		})
	}
	start := time.Now()
	wg.Wait()
	t.Logf("50k events in %v (%d advances)", time.Since(start), s.Advances())
}
