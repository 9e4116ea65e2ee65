// Package clock provides virtual time for the λFS simulation substrate.
//
// Every latency in the system — HTTP invocation overhead, TCP round trips,
// NDB service times, cold starts — is expressed in *virtual* time and
// injected through a Clock. Every experiment, the benchmark and the default
// lambdafs.Cluster run on Sim (sim.go), the discrete-event clock that is
// also the only scheduler of its goroutines: a 300-second industrial
// workload executes in wall-clock seconds, latencies are exact, and a seeded
// run is bit-identical. A Scaled clock maps virtual durations onto (much
// shorter) real waits instead — Cluster's TimeScale > 0, and at scale 0 the
// zero-latency clock of the chaos episodes and many unit tests. A Manual
// clock only advances when told to; tests of timer-driven logic use it.
//
// The Scaled clock does not rely on time.Sleep for short waits: kernel
// timer granularity can exceed a millisecond, which would flatten the
// sub-millisecond latency differences the evaluation depends on (TCP vs
// HTTP RPC, store service times). Instead a single ticker goroutine spins
// (yielding to the scheduler) over a deadline heap and wakes sleepers
// through channels, giving microsecond-level precision independent of the
// number of concurrent sleepers.
package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Clock is the virtual time source used by every component in the system.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks for the given virtual duration.
	Sleep(d time.Duration)
	// Since returns the virtual time elapsed since t.
	Since(t time.Time) time.Duration
	// After returns a channel that receives the virtual time after d has
	// elapsed. The timer cannot be cancelled; use short durations in
	// loops that must terminate.
	After(d time.Duration) <-chan time.Time
}

// Epoch is the virtual time origin shared by all clocks so that timestamps
// from independent components are comparable.
var Epoch = time.Date(2023, time.March, 25, 0, 0, 0, 0, time.UTC)

// scaled maps virtual time onto real time with a constant factor, waking
// sleepers from a spinning ticker for precision.
type scaled struct {
	scale float64 // real seconds per virtual second
	start time.Time

	mu      sync.Mutex
	heapq   deadlineHeap
	running bool
	kick    chan struct{} // capacity 1: cuts the ticker's long sleep short when an earlier deadline arrives
}

type sleeper struct {
	deadline time.Time // real deadline
	ch       chan time.Time
}

type deadlineHeap []sleeper

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)        { *h = append(*h, x.(sleeper)) }
func (h *deadlineHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}
func (h deadlineHeap) peek() time.Time { return h[0].deadline }
func (h deadlineHeap) empty() bool     { return len(h) == 0 }

// NewScaled returns a Clock where one virtual second costs scale real
// seconds. scale=1 is real time; scale=0.1 runs 10x faster than real
// time; scale=0 makes every Sleep return immediately while Now still
// advances with real time (useful for logic-only tests).
func NewScaled(scale float64) Clock {
	if scale < 0 {
		panic("clock: negative scale")
	}
	return &scaled{scale: scale, start: time.Now(), kick: make(chan struct{}, 1)}
}

func (c *scaled) Now() time.Time {
	real := time.Since(c.start)
	if c.scale == 0 {
		// Virtual time advances with real time 1:1 so that Since() still
		// yields usable (tiny) durations.
		return Epoch.Add(real)
	}
	return Epoch.Add(time.Duration(float64(real) / c.scale))
}

func (c *scaled) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *scaled) Sleep(d time.Duration) {
	if d <= 0 || c.scale == 0 {
		return
	}
	<-c.after(d)
}

func (c *scaled) After(d time.Duration) <-chan time.Time {
	if c.scale == 0 || d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- c.Now()
		return ch
	}
	return c.after(d)
}

func (c *scaled) after(d time.Duration) <-chan time.Time {
	realDur := time.Duration(float64(d) * c.scale)
	ch := make(chan time.Time, 1)
	s := sleeper{deadline: time.Now().Add(realDur), ch: ch}
	c.mu.Lock()
	earliest := c.heapq.empty() || s.deadline.Before(c.heapq.peek())
	heap.Push(&c.heapq, s)
	if !c.running {
		c.running = true
		go c.tick()
	} else if earliest {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
	return ch
}

// tick is the central ticker: it spins (yielding) until the earliest
// deadline passes, wakes everything due, and exits when the heap drains.
func (c *scaled) tick() {
	for {
		c.mu.Lock()
		if c.heapq.empty() {
			c.running = false
			c.mu.Unlock()
			// A sleeper may have arrived between the emptiness check and
			// clearing running; it restarts the ticker via the running
			// flag, so nothing is lost.
			return
		}
		next := c.heapq.peek()
		now := time.Now()
		var due []sleeper
		for !c.heapq.empty() && !c.heapq.peek().After(now) {
			due = append(due, heap.Pop(&c.heapq).(sleeper))
		}
		c.mu.Unlock()
		if len(due) > 0 {
			vnow := c.Now()
			for _, s := range due {
				s.ch <- vnow
			}
			continue
		}
		// Nothing due yet: wait with precision appropriate to the gap.
		gap := next.Sub(now)
		if gap > 3*time.Millisecond {
			// Long gap: a real sleep is accurate enough and saves CPU.
			t := time.NewTimer(gap - 2*time.Millisecond)
			select {
			case <-t.C:
			case <-c.kick:
				t.Stop()
			}
		} else {
			runtime.Gosched()
		}
	}
}

// Manual is a Clock that advances only when Advance is called. Sleepers
// block until virtual time passes their deadline. It is safe for
// concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a Manual clock positioned at Epoch.
func NewManual() *Manual {
	return &Manual{now: Epoch}
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	deadline := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		m.mu.Unlock()
		return ch
	}
	m.waiters = append(m.waiters, &manualWaiter{deadline: deadline, ch: ch})
	m.mu.Unlock()
	return ch
}

// Advance moves virtual time forward by d, waking every sleeper whose
// deadline has passed.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	remaining := m.waiters[:0]
	var fired []*manualWaiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// Waiters reports how many sleepers are currently blocked; tests use it to
// synchronize before advancing.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
