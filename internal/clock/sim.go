package clock

import (
	"container/heap"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a discrete-event simulation clock: virtual time advances
// instantly to the next pending deadline whenever every registered
// goroutine is idle, so computation consumes no virtual time and modeled
// latencies are exact regardless of host timer granularity or core count.
// This is what the benchmark harness runs on; the experiments' latency
// model would otherwise be flattened by the ~1 ms kernel timer resolution
// (see the package comment).
//
// The contract: every goroutine participating in the simulation is
// spawned through Go, and waits for simulation events only through the
// clock: Sleep and SleepOr for time, a Mailbox, Event or Group (wait.go) for
// anything else. A registered goroutine blocked any other way stalls
// virtual time; the watchdog dumps all goroutines after StallTimeout to
// make such bugs easy to find.
//
// Which wakes are exact: all of them. A parked goroutine gives up its busy
// token, and whoever wakes it — advance reaching its deadline, a Send, a
// Set, a Group's last Done, Close — hands the token back *before* sending
// the wake (waiter.wake, the one implementation), so the busy count never
// reads zero between a wake and the woken goroutine's next instruction and
// time cannot advance past work that is about to happen. When an event and
// a deadline land on the same instant, whichever claims the waiter first
// owns the outcome; a wait its event satisfied takes its deadline out of
// the heap, so it costs no later advance. Only the order of goroutines
// runnable at the same virtual instant is left to the host scheduler
// (same-instant arrivals at a Queue or a mutex are ordered by the mutex):
// virtual durations are exact, a run is not bit-deterministic.
//
// The exception is Idle, kept for the benchmark/ module alone: a goroutine
// woken through a raw channel inside Idle re-registers only once it runs, so
// the monitor still holds back each advance until the busy count has stayed
// zero across several scheduler yields — sound on one P, where benchmark/
// runs.
type Sim struct {
	nowNS atomic.Int64 // virtual ns since Epoch
	busy  atomic.Int64

	mu    sync.Mutex
	heapq simHeap

	stop          chan struct{}
	closed        atomic.Bool
	progress      atomic.Int64 // real ns of last observed progress
	StallTimeout  time.Duration
	advanceEvents atomic.Uint64

	// registered tracks the goroutine IDs of simulation-registered
	// goroutines so Run can detect re-entrancy and run inline.
	registered sync.Map // int64 -> struct{}
}

// goid returns the current goroutine's ID (parsed from the stack header;
// used only on Run's cold path).
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [...":
	s := buf[10:n]
	var id int64
	for _, b := range s {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + int64(b-'0')
	}
	return id
}

// simHeap orders parked waiters and After entries by deadline; each entry
// tracks its position so a wait its event satisfied can leave early.
type simHeap []*waiter

func (h simHeap) Len() int           { return len(h) }
func (h simHeap) Less(i, j int) bool { return h[i].deadlineNS < h[j].deadlineNS }
func (h simHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *simHeap) Push(x any) {
	w := x.(*waiter)
	w.idx, w.queued = len(*h), true
	*h = append(*h, w)
}
func (h *simHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.queued = false
	*h = old[:len(old)-1]
	return w
}

var _ Clock = (*Sim)(nil)

// NewSim starts a simulation clock at Epoch. Call Close when done.
func NewSim() *Sim {
	s := &Sim{stop: make(chan struct{}), StallTimeout: 10 * time.Second}
	s.progress.Store(time.Now().UnixNano())
	go s.monitor()
	return s
}

// Close stops the monitor. Everything parked with a deadline is woken
// immediately, as if the deadline had come, so the simulation can drain.
func (s *Sim) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.mu.Lock()
	pending := s.heapq
	s.heapq = nil
	for _, w := range pending {
		w.queued = false
	}
	s.mu.Unlock()
	s.fire(pending)
}

// fire wakes entries taken off the heap: their deadline has come.
func (s *Sim) fire(due []*waiter) {
	now := s.Now()
	for _, w := range due {
		if w.after != nil {
			w.after <- now
			continue
		}
		w.wake(s, true)
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return Epoch.Add(time.Duration(s.nowNS.Load())) }

// Since returns virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep blocks for exactly d of virtual time.
func (s *Sim) Sleep(d time.Duration) {
	if d > 0 {
		w := newWaiter()
		s.park(&w, s.nowNS.Load()+int64(d))
	}
}

// park is the Sim side of the package's park: the goroutine gives up its
// busy token for as long as it is parked and gets it back from its waker.
// deadlineNS is virtual ns since Epoch, 0 for none. A deadline already due,
// or any deadline on a closed clock, wakes w on the spot; a wait its event
// satisfied takes its deadline off the heap.
func (s *Sim) park(w *waiter, deadlineNS int64) (expired bool) {
	armed := false
	if deadlineNS != 0 {
		w.deadlineNS = deadlineNS
		s.mu.Lock()
		if armed = !s.closed.Load() && deadlineNS > s.nowNS.Load(); armed {
			heap.Push(&s.heapq, w)
		}
		s.mu.Unlock()
		if !armed {
			w.wake(s, true)
		}
	}
	s.busy.Add(-1)
	expired = <-w.ch
	if armed && !expired {
		s.mu.Lock()
		if w.queued {
			heap.Remove(&s.heapq, w.idx)
		}
		s.mu.Unlock()
	}
	return expired
}

// After returns a channel receiving the virtual time once d has elapsed.
// A registered goroutine cannot wait on it exactly (see Idle): use Sleep,
// SleepOr or a Deadline instead.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	if d <= 0 || s.closed.Load() {
		s.mu.Unlock()
		ch <- s.Now()
		return ch
	}
	heap.Push(&s.heapq, &waiter{after: ch, deadlineNS: s.nowNS.Load() + int64(d)})
	s.mu.Unlock()
	return ch
}

// GoRun spawns fn as a registered simulation goroutine.
func (s *Sim) GoRun(fn func()) {
	s.busy.Add(1)
	go func() {
		id := goid()
		s.registered.Store(id, struct{}{})
		defer func() {
			s.registered.Delete(id)
			s.busy.Add(-1)
		}()
		fn()
	}()
}

// isRegistered reports whether the calling goroutine is
// simulation-registered.
func (s *Sim) isRegistered() bool {
	_, ok := s.registered.Load(goid())
	return ok
}

// Advances reports how many time advances occurred (diagnostics).
func (s *Sim) Advances() uint64 { return s.advanceEvents.Load() }

// monitor advances virtual time whenever the simulation quiesces.
func (s *Sim) monitor() {
	const graceRounds = 16
	// idleStreak counts consecutive empty+idle observations; the monitor
	// only parks (time.Sleep has ~millisecond kernel granularity) once
	// the simulation has looked finished for a while — a goroutine woken
	// by the previous advance may not have re-registered yet.
	idleStreak := 0
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if b := s.busy.Load(); b != 0 {
			idleStreak = 0
			if b > 0 {
				// Positive busy is normal execution; negative busy means
				// an unregistered goroutine slept or idled — let the
				// stall watchdog expose it.
				s.progress.Store(time.Now().UnixNano())
			}
			runtime.Gosched()
			s.checkStall()
			continue
		}
		s.mu.Lock()
		empty := s.heapq.Len() == 0
		s.mu.Unlock()
		if empty {
			idleStreak++
			if idleStreak < 2000 {
				runtime.Gosched()
				continue
			}
			// Genuinely nothing to do: the simulation is finished or has
			// not started. Park without burning the core.
			time.Sleep(time.Millisecond)
			continue
		}
		idleStreak = 0
		// Grace: let woken-but-unregistered goroutines run before
		// declaring quiescence.
		stable := true
		for i := 0; i < graceRounds; i++ {
			runtime.Gosched()
			if s.busy.Load() != 0 {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		s.advance()
	}
}

// advance pops every waiter at the earliest deadline and wakes it.
func (s *Sim) advance() {
	s.mu.Lock()
	if s.heapq.Len() == 0 || s.busy.Load() != 0 {
		s.mu.Unlock()
		return
	}
	deadline := s.heapq[0].deadlineNS
	var due []*waiter
	for s.heapq.Len() > 0 && s.heapq[0].deadlineNS == deadline {
		due = append(due, heap.Pop(&s.heapq).(*waiter))
	}
	s.nowNS.Store(deadline)
	s.mu.Unlock()
	s.advanceEvents.Add(1)
	s.progress.Store(time.Now().UnixNano())
	s.fire(due)
}

// checkStall panics with a goroutine dump when registered goroutines stay
// busy without progress — almost always an unwrapped blocking wait.
func (s *Sim) checkStall() {
	if s.StallTimeout <= 0 {
		return
	}
	last := time.Unix(0, s.progress.Load())
	if time.Since(last) < s.StallTimeout {
		return
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr, "clock.Sim: stall detected (busy=%d for %v); goroutines:\n%s\n",
		s.busy.Load(), time.Since(last), buf[:n])
	panic("clock.Sim: simulation stalled — a registered goroutine is blocked outside Sleep/Idle")
}

// Go spawns fn as a simulation-registered goroutine when clk is a Sim,
// and as a plain goroutine otherwise. All simulation components spawn
// through this helper.
func Go(clk Clock, fn func()) {
	if s, ok := clk.(*Sim); ok {
		s.GoRun(fn)
		return
	}
	go fn()
}

// Idle runs fn, which blocks on a raw channel or WaitGroup, with the calling
// goroutine marked idle when clk is a Sim. The wake that ends fn is not
// clock-owned, so on a Sim it is exact only heuristically (see the Sim type
// comment). Idle exists for the two joins in benchmark/run.go, which only a
// benchmark PR may edit; this module has no non-test caller and
// lambdafs-vet's virtualtime check keeps it so. Wait on a Mailbox, Event or
// Group instead.
func Idle(clk Clock, fn func()) {
	if s, ok := clk.(*Sim); ok {
		s.busy.Add(-1)
		defer s.busy.Add(1)
	}
	fn()
}

// SleepOr sleeps d of virtual time on clk unless cancel is set first, and
// reports whether the sleep ran its course. It is the one way to wait for
// "a deadline or a shutdown". A cancel already set wins over a sleep that
// would return at once.
func SleepOr(clk Clock, d time.Duration, cancel *Event) bool {
	return !cancel.WaitBy(DeadlineIn(clk, d))
}

// Run executes fn to completion on clk: on a Sim clock, fn is shuttled
// into a registered goroutine when the caller is unregistered (an
// unregistered goroutine must never Sleep on a Sim directly — it would
// stall the monitor) and runs inline when the caller is already
// registered; on other clocks fn always runs inline. Public API entry
// points use this so applications and tests need no knowledge of the DES
// clock.
func Run(clk Clock, fn func()) {
	s, ok := clk.(*Sim)
	if !ok || s.isRegistered() {
		fn()
		return
	}
	done := make(chan struct{})
	s.GoRun(func() {
		defer close(done)
		fn()
	})
	<-done
}
