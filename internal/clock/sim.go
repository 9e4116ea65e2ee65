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
// spawned through Go (or registered with Add/Done), and marks itself idle
// around every blocking operation that waits on *simulation* events —
// Sleep and SleepOr do this automatically; channel waits are wrapped in
// Idle. A registered goroutine blocked outside Sleep/Idle stalls virtual
// time; the watchdog dumps all goroutines after StallTimeout to make such
// bugs easy to find.
//
// Which wakes are exact. A goroutine parked in Sleep or SleepOr gives up
// its busy token, and the waker (advance, Close) hands the token back
// *before* it sends the wake, so the busy count never reads zero between
// a sleeper's wake and its next instruction. That covers every wait for
// time: latencies, service and queueing on a Queue (capacity is a plain
// Sleep), periodic loops, CPU charges cut short by a kill. What remains
// heuristic is a goroutine woken through a channel inside Idle — an rpc
// reply, a coordinator ACK or semaphore, a row-lock grant, a FaaS
// admission slot, a WaitGroup: it re-registers only once it runs, so the
// monitor advances time only after the busy count has stayed zero across
// several scheduler yields, which gives such goroutines time to run. On
// one P that is sound (a woken goroutine is runnable and runs within the
// yields); with more Ps and a loaded host the monitor can still win the
// race and advance early. The simulation is therefore not
// bit-deterministic — and same-instant arrivals at a Queue are ordered by
// its mutex — but virtual durations are exact.
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

type simWaiter struct {
	deadlineNS int64
	ch         chan time.Time
	sleep      bool // Sleep waiter: parked without its busy token, which wake hands back
	// claim is set on a cancellable sleep (SleepOr): the wake and the
	// cancellation both swap it to true, and whichever does so first owns
	// the outcome — so a cancelled sleeper is never handed a token.
	claim *atomic.Bool
}

type simHeap []simWaiter

func (h simHeap) Len() int           { return len(h) }
func (h simHeap) Less(i, j int) bool { return h[i].deadlineNS < h[j].deadlineNS }
func (h simHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)        { *h = append(*h, x.(simWaiter)) }
func (h *simHeap) Pop() (out any)    { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

var _ Clock = (*Sim)(nil)

// NewSim starts a simulation clock at Epoch. Call Close when done.
func NewSim() *Sim {
	s := &Sim{stop: make(chan struct{}), StallTimeout: 10 * time.Second}
	s.progress.Store(time.Now().UnixNano())
	go s.monitor()
	return s
}

// Close stops the monitor. Pending sleepers are woken immediately so the
// simulation can drain.
func (s *Sim) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stop)
	s.mu.Lock()
	pending := append(simHeap(nil), s.heapq...)
	s.heapq = nil
	s.mu.Unlock()
	s.wake(pending, s.Now())
}

// wake delivers now to every waiter. A Sleep waiter gave up its busy token
// when it parked; the token is handed back here, before the send, so the
// monitor never observes the instant between a sleeper's wake and its
// re-registration as quiescence.
func (s *Sim) wake(ws []simWaiter, now time.Time) {
	for _, w := range ws {
		if w.claim != nil && w.claim.Swap(true) {
			continue // cancelled: nobody is waiting
		}
		if w.sleep {
			s.busy.Add(1)
		}
		w.ch <- now
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return Epoch.Add(time.Duration(s.nowNS.Load())) }

// Since returns virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep blocks for exactly d of virtual time.
func (s *Sim) Sleep(d time.Duration) { s.sleepOr(d, nil) }

// sleepOr is Sleep that gives up when cancel is closed (nil: never); it
// reports whether the sleep ran its course. See SleepOr.
func (s *Sim) sleepOr(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 || s.closed.Load() {
		return true
	}
	w := simWaiter{deadlineNS: s.nowNS.Load() + int64(d), ch: make(chan time.Time, 1), sleep: true}
	if cancel != nil {
		w.claim = new(atomic.Bool)
	}
	s.mu.Lock()
	heap.Push(&s.heapq, w)
	s.mu.Unlock()
	s.busy.Add(-1)
	select {
	case <-w.ch: // the waker re-added our busy token (see wake)
		return true
	case <-cancel:
		if w.claim.Swap(true) {
			<-w.ch // the wake got there first; take its token and its word
			return true
		}
		// The abandoned waiter stays in the heap until its deadline and is
		// skipped there. Re-registering here is the heuristic seam every
		// channel wake has (see the type comment).
		s.busy.Add(1)
		return false
	}
}

// After returns a channel receiving the virtual time once d has elapsed.
// Receivers inside registered goroutines must wait for it inside Idle.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 || s.closed.Load() {
		ch <- s.Now()
		return ch
	}
	s.mu.Lock()
	heap.Push(&s.heapq, simWaiter{deadlineNS: s.nowNS.Load() + int64(d), ch: ch})
	s.mu.Unlock()
	return ch
}

// Add registers n additional busy goroutines (Go uses it; exposed for
// callers that manage goroutines manually).
func (s *Sim) Add(n int64) { s.busy.Add(n) }

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

// IdleDo marks the calling registered goroutine idle while fn blocks on a
// simulation event (channel wait, WaitGroup, select).
func (s *Sim) IdleDo(fn func()) {
	s.busy.Add(-1)
	fn()
	s.busy.Add(1)
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
	var due []simWaiter
	for s.heapq.Len() > 0 && s.heapq[0].deadlineNS == deadline {
		due = append(due, heap.Pop(&s.heapq).(simWaiter))
	}
	s.nowNS.Store(deadline)
	s.mu.Unlock()
	s.advanceEvents.Add(1)
	s.progress.Store(time.Now().UnixNano())
	s.wake(due, s.Now())
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

// Idle marks the calling goroutine idle for the duration of fn when clk
// is a Sim (fn blocks on a simulation event); otherwise it just runs fn.
// Every channel wait on the simulation's hot paths is wrapped in Idle.
func Idle(clk Clock, fn func()) {
	if s, ok := clk.(*Sim); ok {
		s.IdleDo(fn)
		return
	}
	fn()
}

// SleepOr sleeps d of virtual time on clk unless cancel is closed first,
// and reports whether the sleep ran its course. It is the one way to wait
// for "a deadline or a shutdown": on a Sim the deadline wake is as exact
// as Sleep's, which a select over After inside Idle is not.
func SleepOr(clk Clock, d time.Duration, cancel <-chan struct{}) bool {
	select {
	case <-cancel: // already cancelled: wins over a sleep that would return at once
		return false
	default:
	}
	if s, ok := clk.(*Sim); ok {
		return s.sleepOr(d, cancel)
	}
	select {
	case <-clk.After(d):
		return true
	case <-cancel:
		return false
	}
}

// Timeout returns a channel that fires after d. On a Sim clock the
// timeout is *virtual* (deterministic with respect to simulated time); on
// other clocks it is a real-time timer (virtual-scaled timers would fire
// instantly on zero-scale test clocks).
func Timeout(clk Clock, d time.Duration) <-chan time.Time {
	if s, ok := clk.(*Sim); ok {
		return s.After(d)
	}
	ch := make(chan time.Time, 1)
	go func() {
		time.Sleep(d)
		ch <- time.Now()
	}()
	return ch
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
