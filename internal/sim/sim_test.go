package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestSchedulerDeterminism pins the core contract: the same seeded
// workload produces the same event count and the same executed-order
// digest on every run, and a different seed produces a different one.
func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, uint64) {
		s := New(256)
		rng := rand.New(rand.NewSource(seed))
		var fired int
		// 64 self-rescheduling chains with seeded jitter, the shape of a
		// client population.
		for i := 0; i < 64; i++ {
			var step func()
			remaining := 50
			step = func() {
				fired++
				remaining--
				if remaining > 0 {
					s.After(time.Duration(rng.Intn(1000))*time.Microsecond, step)
				}
			}
			s.After(time.Duration(rng.Intn(1000))*time.Microsecond, step)
		}
		s.Run()
		if fired != 64*50 {
			t.Fatalf("fired %d events, want %d", fired, 64*50)
		}
		return s.Executed(), s.Digest()
	}
	n1, d1 := run(7)
	n2, d2 := run(7)
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d, %#x) vs (%d, %#x)", n1, d1, n2, d2)
	}
	if _, d3 := run(8); d3 == d1 {
		t.Fatalf("different seeds collided on digest %#x", d1)
	}
}

// TestHeapFIFOStability checks the (time, seq) ordering: events scheduled
// for the same instant fire in scheduling order, even interleaved with
// events at other times and scheduled from inside callbacks.
func TestHeapFIFOStability(t *testing.T) {
	s := New(0)
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	// Ten events at t=5ms scheduled in id order, interleaved with earlier
	// and later events.
	s.After(time.Millisecond, record(100))
	for id := 0; id < 10; id++ {
		s.After(5*time.Millisecond, record(id))
	}
	s.After(9*time.Millisecond, record(200))
	// An early event scheduling another t=5ms event: it was scheduled
	// later than ids 0..9, so it must fire after them.
	s.After(2*time.Millisecond, func() { s.At(5*time.Millisecond, record(10)) })
	s.Run()

	want := []int{100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 200}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full order %v)", i, order[i], want[i], order)
		}
	}
	if s.Now() != 9*time.Millisecond {
		t.Fatalf("final Now = %v, want 9ms", s.Now())
	}
}

// TestRunUntil checks partial execution: events beyond the horizon stay
// pending, and the clock lands exactly on the horizon.
func TestRunUntil(t *testing.T) {
	s := New(0)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(4 * time.Second)
	if len(fired) != 2 || s.Pending() != 1 {
		t.Fatalf("after RunUntil(4s): fired %v, pending %d", fired, s.Pending())
	}
	if s.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", s.Now())
	}
	s.Run()
	if len(fired) != 3 || s.Now() != 5*time.Second {
		t.Fatalf("after Run: fired %v, Now %v", fired, s.Now())
	}
}

// splitmix64 is the budget test's per-client PRNG: one uint64 of state
// per client instead of math/rand's ~5KB source.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestHundredKClientBudget is the scale smoke: 100k self-rescheduling
// clients running 5 virtual seconds (~500k events) must finish within a
// small wall-clock and allocation budget. The budgets are deliberately
// loose (CI machines vary) while still catching a regression to
// goroutine-per-client costs, which would blow both by an order of
// magnitude.
func TestHundredKClientBudget(t *testing.T) {
	const clients = 100_000
	const horizon = 5 * time.Second

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	s := New(clients)
	var done uint64
	for i := 0; i < clients; i++ {
		state := uint64(i)*0x9e3779b97f4a7c15 + 1
		var step func()
		step = func() {
			done++
			// ~1 op/s per client: uniform think time in [0.5s, 1.5s).
			think := 500*time.Millisecond + time.Duration(splitmix64(&state)%uint64(time.Second))
			s.After(think, step)
		}
		s.After(time.Duration(splitmix64(&state)%uint64(time.Second)), step)
	}
	s.RunUntil(horizon)

	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	if done < 4*clients {
		t.Fatalf("only %d events executed for %d clients over %v", done, clients, horizon)
	}
	if wall > 10*time.Second {
		t.Fatalf("100k-client run took %v wall, budget 10s", wall)
	}
	// The run needs one pending event per client (~40B each) plus the
	// closures; 64MB of cumulative allocation is ~10x headroom.
	if allocMB > 64 {
		t.Fatalf("100k-client run allocated %.1f MB, budget 64 MB", allocMB)
	}
	t.Logf("%d clients, %d events, %v wall, %.1f MB allocated", clients, done, wall, allocMB)
}
