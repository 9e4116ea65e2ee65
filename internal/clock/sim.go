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

// Sim is a discrete-event simulation clock and the only scheduler of the
// goroutines that run on it: computation consumes no virtual time, modeled
// latencies are exact regardless of host timer granularity or core count
// (the ~1 ms kernel timer resolution would otherwise flatten the
// sub-millisecond differences the evaluation depends on: TCP vs HTTP RPC,
// store service times), and a run steps the same way every time.
//
// The contract: every goroutine of the simulation is started through Go,
// GoDaemon or Run, and waits only through the clock: Sleep and SleepOr for
// time, a Mailbox, Event or Group (wait.go) for anything else. A registered
// goroutine blocked any other way keeps the baton and stalls the simulation;
// the watchdog dumps all goroutines after StallTimeout.
//
// The order rule: exactly one registered goroutine runs at a time — it holds
// the baton. A wake (a Send, a Set, a Group's last Done, Close, a spawn)
// releases nobody to the host scheduler; it appends to a first-come-first-
// served run queue. Whoever parks or returns hands the baton to the head of
// that queue, and when the queue is empty that same goroutine moves time to
// the earliest armed deadline and queues everything due then in (deadline,
// arm order). So woken goroutines run in wake order and spawned ones in
// spawn order once the waker or spawner parks, sleepers due together run in
// the order they went to sleep, and of an event and a deadline landing
// together the first to claim the waiter owns the outcome (a wait its event
// satisfied takes its deadline out of the heap: no later advance). A
// simulation whose goroutines are all clock-started is bit-deterministic on
// any number of Ps; what an unregistered goroutine does (a test calling
// Stop, a driver spawning from outside) lands wherever the host puts it.
//
// The stand-still rule: time moves only for someone. It advances only while
// a goroutine started by Go or Run is alive; periodic background loops
// (reclaimer, scraper, fault injector) are started by GoDaemon and do not count.
// A quiescent cluster therefore holds its clock between two Run calls, and a
// wake from outside (a spawn, a Set, a Send, Close) starts it again.
//
// The reuse rule: a goroutine the clock started outlives its fn. When fn
// returns it puts its start record back on Sim.tasks, hands the baton on and
// parks on the record until a spawn resumes it with the next fn, so a spawn
// costs one channel send, like a wake, and a go statement only when no
// goroutine is parked. Close releases the parked ones; an fn that ends in
// runtime.Goexit takes its goroutine with it.
//
// What is still a guess: Idle, at the bottom of this file, whose raw wake
// must be made by a clock-started goroutine's fn before that fn returns.
type Sim struct {
	nowNS atomic.Int64 // virtual ns since Epoch; stored under mu

	mu         sync.Mutex
	heapq      simHeap    // armed deadlines
	arms       uint64     // arm sequence: same-instant deadlines fire in arm order
	runq       []runnable // runq[head:] wait for the baton, first come first served
	head       int
	running    bool   // a registered goroutine holds the baton
	alive      int    // non-daemon goroutines spawned and not yet returned
	idlers     int    // Idle helpers out
	idleSince  uint64 // spawns when the latest Idle began
	graceDue   bool   // a goroutine spawned before an Idle still out returned: grace the next advance
	spawns     uint64 // spawn sequence
	closed     bool
	exiting    int                // goroutines bound to exit and not yet gone: the watchdog once closed, and task goroutines let go
	picks      uint64             // baton hand-offs, for the watchdog
	registered map[int64]struct{} // goroutine IDs, for Run's re-entrancy check
	spare      []*waiter          // spent waiters, for reuse (getWaiter, putWaiter in wait.go)
	tasks      []*task            // records of parked goroutines, for reuse (spawn)
	goidBuf    [64]byte           // the stack header goid parses

	stop          chan struct{}
	StallTimeout  time.Duration
	advanceEvents atomic.Uint64
}

// runnable is one run-queue slot: a parked goroutine to resume with its
// park's outcome, or (t set) a spawn to run.
type runnable struct {
	w       *waiter
	expired bool
	t       *task
}

// task is a spawn's start record and, once dispatch has started a goroutine
// for it (live), that goroutine's for good: the goroutine parks on ch
// between fns (the reuse rule in the Sim type comment), so a spawn allocates
// nothing once warm.
type task struct {
	sim    *Sim
	fn     func()
	daemon bool
	seq    uint64        // the spawn's place in Sim.spawns
	live   bool          // a goroutine serves this record
	ch     chan struct{} // capacity 1: the resume; closed by Close
}

// goid returns the current goroutine's ID, parsed from the stack header in
// s.goidBuf (once per goroutine the clock starts, and in isRegistered).
// Caller holds s.mu.
func (s *Sim) goid() int64 {
	n := runtime.Stack(s.goidBuf[:], false)
	// "goroutine 123 [...":
	var id int64
	for _, b := range s.goidBuf[10:n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + int64(b-'0')
	}
	return id
}

// simHeap orders parked waiters by (deadline, arm order); each entry tracks
// its position so a wait its event satisfied can leave early.
type simHeap []*waiter

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].deadlineNS != h[j].deadlineNS {
		return h[i].deadlineNS < h[j].deadlineNS
	}
	return h[i].seq < h[j].seq
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
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

// NewSim starts a simulation clock at Epoch. Call Close when done.
func NewSim() *Sim {
	s := &Sim{stop: make(chan struct{}), StallTimeout: 10 * time.Second, registered: map[int64]struct{}{}}
	go s.watchdog()
	return s
}

// Close stops the watchdog and drains the simulation: everything parked
// with a deadline is woken, in heap order, as if the deadline had come, and
// from then on a deadline expires as soon as it is waited on. SleepOr tells
// such a sleep from one that ran its course: it reports false, so a daemon
// loop over SleepOr returns. The goroutines parked between fns exit, and so
// does each still running once its fn returns.
func (s *Sim) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
		for len(s.heapq) > 0 {
			s.wakeLocked(heap.Pop(&s.heapq).(*waiter), true)
		}
		for _, t := range s.tasks {
			close(t.ch)
		}
		s.exiting += len(s.tasks) + 1 // and the watchdog
		s.tasks = nil
	}
	s.mu.Unlock()
}

// Drained reports whether s is closed and none of its goroutines runs any
// more: none holds the baton, and the watchdog and every goroutine let go
// have exited. One still unwinding allocates on the host, so a test that
// counts allocations waits for this (simtest.New).
func (s *Sim) Drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed && !s.running && s.exiting == 0
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return Epoch.Add(time.Duration(s.nowNS.Load())) }

// Since returns virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep blocks for exactly d of virtual time. No event source lists a
// sleep's waiter, so it goes back to the pool as soon as park returns.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := s.getWaiter()
	s.park(w, s.nowNS.Load()+int64(d))
	s.putWaiter(w)
}

// park blocks the calling goroutine on w, which its event source (if any)
// already lists, until that source or the deadline wakes it, and reports
// whether the deadline did: the goroutine puts the baton down, hands it to
// whoever is next and blocks until somebody's pick hands it back with the
// outcome. deadlineNS is virtual ns since Epoch, 0 for none. A deadline
// already due returns at once, baton in hand, unless an event got to w
// first; on a closed clock every deadline is due, but the goroutine queues
// behind the others so a ticker loop cannot keep the baton to itself.
func (s *Sim) park(w *waiter, deadlineNS int64) (expired bool) {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		panic("clock.Sim: parked by a goroutine the clock did not start — enter through clock.Run")
	}
	switch {
	case deadlineNS == 0 || w.claimed.Load(): // nothing to arm
	case s.closed:
		s.wakeLocked(w, true)
	case deadlineNS <= s.nowNS.Load():
		w.claimed.Store(true) // under s.mu, like every claim
		s.mu.Unlock()
		return true
	default:
		s.arms++
		w.deadlineNS, w.seq = deadlineNS, s.arms
		heap.Push(&s.heapq, w)
	}
	r, picked := s.next()
	s.mu.Unlock()
	if picked && r.w == w {
		return r.expired
	}
	s.dispatch(r, picked)
	return <-w.ch
}

// wake is what every wait ends with, whoever the waker is: a deadline, a
// Send, a Set, the last Done, Close. It queues the goroutine parked (or about
// to park) on w with the outcome its park will report, unless another wake
// claimed w first — of an event and a deadline landing together the first to
// claim the waiter owns the outcome — and reports whether this one won.
func (s *Sim) wake(w *waiter, expired bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wakeLocked(w, expired)
}

// wakeLocked is wake for a caller that holds s.mu.
func (s *Sim) wakeLocked(w *waiter, expired bool) bool {
	if w.claimed.Swap(true) {
		return false
	}
	if w.queued {
		heap.Remove(&s.heapq, w.idx)
	}
	s.enqueue(runnable{w: w, expired: expired})
	return true
}

// spawn queues fn to run, on a parked goroutine or a new one, when its
// turn for the baton comes.
func (s *Sim) spawn(fn func(), daemon bool) {
	s.mu.Lock()
	if !daemon {
		s.alive++
	}
	var t *task
	if n := len(s.tasks); n > 0 {
		t, s.tasks = s.tasks[n-1], s.tasks[:n-1]
	} else {
		t = &task{sim: s, ch: make(chan struct{}, 1)}
	}
	s.spawns++
	t.fn, t.daemon, t.seq = fn, daemon, s.spawns
	s.enqueue(runnable{t: t})
	s.mu.Unlock()
}

// enqueue puts r at the tail of the run queue. This is also how a
// simulation that stands still starts again: the caller is then outside it
// and picks the baton up for r. Caller holds s.mu (dispatch cannot block).
func (s *Sim) enqueue(r runnable) {
	s.runq = append(s.runq, r)
	if !s.running {
		s.running = true
		s.dispatch(s.next())
	}
}

// next picks who gets the baton from the caller, which is parking,
// returning or outside: the head of the run queue, or — the queue empty —
// the first of everything due at the earliest deadline, time moved there.
// With nothing to pick (no deadline armed, or none that anybody alive is
// waiting out) the baton is put down and the simulation stands still until
// a wake from outside. Caller holds s.mu.
func (s *Sim) next() (r runnable, ok bool) {
	for s.head == len(s.runq) {
		if s.graceDue {
			s.graceDue = false
			if s.grace(); s.head < len(s.runq) {
				break
			}
		}
		if len(s.heapq) == 0 || s.alive == 0 {
			s.running = false
			return r, false
		}
		at := s.heapq[0].deadlineNS
		s.nowNS.Store(at)
		s.advanceEvents.Add(1)
		for len(s.heapq) > 0 && s.heapq[0].deadlineNS == at {
			s.wakeLocked(heap.Pop(&s.heapq).(*waiter), true)
		}
	}
	r = s.runq[s.head]
	s.runq[s.head] = runnable{}
	if s.head++; s.head == len(s.runq) {
		s.runq, s.head = s.runq[:0], 0
	}
	s.picks++
	return r, true
}

// dispatch hands the baton to r, if there is one: resumes the parked
// goroutine (its channel has room for the one outcome or resume it gets per
// park) or, for a spawn whose record no goroutine serves yet, starts one.
func (s *Sim) dispatch(r runnable, ok bool) {
	switch {
	case !ok:
	case r.t == nil:
		r.w.ch <- r.expired
	case r.t.live:
		r.t.ch <- struct{}{}
	default:
		r.t.live = true
		go r.t.run()
	}
}

// run is the body of every registered goroutine: it registers once, then
// runs one spawn's fn after another, each started with the baton, parking
// between them until the next spawn resumes it. It exits once the clock is
// closed, or when fn ends in runtime.Goexit (or a panic) instead of
// returning: the deferred path hands the baton on for it.
func (t *task) run() {
	s := t.sim
	s.mu.Lock()
	id := s.goid()
	s.registered[id] = struct{}{}
	s.mu.Unlock()
	defer func() {
		if t.fn != nil { // fn did not return
			t.handOff(false)
		}
		s.mu.Lock()
		delete(s.registered, id)
		s.exiting--
		s.mu.Unlock()
	}()
	for {
		t.fn()
		if !t.handOff(true) {
			return
		}
		if _, open := <-t.ch; !open {
			return
		}
	}
}

// handOff ends the spawn t ran: it hands the baton on and reports whether
// t went back on s.tasks for the next spawn, which it does when reuse is
// asked for and the clock is open.
func (t *task) handOff(reuse bool) bool {
	s := t.sim
	s.mu.Lock()
	t.fn = nil
	if !t.daemon {
		s.alive--
	}
	reuse = reuse && !s.closed
	if reuse {
		s.tasks = append(s.tasks, t)
	} else {
		s.exiting++
	}
	// An Idle helper's raw wake is made just before an fn spawned ahead of
	// the Idle returns (Idle's contract). If this pick dispatches a queued
	// goroutine, the helper may not run before that one parks, so the grace
	// is owed to the next advance that finds the run queue empty, whoever
	// makes it. An fn spawned while the Idle was out cannot owe one.
	if s.idlers > 0 && t.seq <= s.idleSince {
		s.graceDue = true
	}
	r, ok := s.next()
	s.mu.Unlock()
	s.dispatch(r, ok)
	return reuse
}

// isRegistered reports whether the calling goroutine is
// simulation-registered. While nobody holds the baton it cannot be.
func (s *Sim) isRegistered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return false
	}
	_, ok := s.registered[s.goid()]
	return ok
}

// Advances reports how many time advances occurred (diagnostics).
func (s *Sim) Advances() uint64 { return s.advanceEvents.Load() }

// watchdog panics with a goroutine dump when the baton has not changed
// hands for StallTimeout while somebody holds it — almost always a
// registered goroutine blocked on something the clock does not own. It
// sleeps between checks and exits with Close.
func (s *Sim) watchdog() {
	const tick = time.Second
	var seen uint64
	for stalled := tick; ; stalled += tick {
		select {
		case <-s.stop:
			s.mu.Lock()
			s.exiting--
			s.mu.Unlock()
			return
		case <-time.After(tick):
		}
		s.mu.Lock()
		if !s.running || s.picks != seen {
			seen, stalled = s.picks, 0
		}
		s.mu.Unlock()
		if s.StallTimeout > 0 && stalled >= s.StallTimeout {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "clock.Sim: stall detected (baton held for %v); goroutines:\n%s\n", stalled, buf[:n])
			panic("clock.Sim: simulation stalled — a registered goroutine is blocked outside the clock")
		}
	}
}

// Go spawns fn as a goroutine of the simulation. All simulation components
// spawn through this helper.
func Go(s *Sim, fn func()) { s.spawn(fn, false) }

// GoDaemon is Go for a background loop that ticks for as long as its owner
// exists (a reclaimer, a scraper, a fault injector): it runs like any other
// goroutine, but time does not advance on its account alone (the stand-still
// rule in the Sim type comment).
func GoDaemon(s *Sim, fn func()) { s.spawn(fn, true) }

// SleepOr sleeps d of virtual time on s unless cancel is set first, and
// reports whether the sleep ran its course. It is the one way to wait for
// "a deadline or a shutdown". A cancel already set wins over a sleep that
// would return at once. A sleep runs its course when time reaches its
// deadline; Close wakes a sleep without moving time, so on a closed clock
// no sleep runs its course and a `for SleepOr(s, d, stop)` loop returns
// even when stop is never set.
func SleepOr(s *Sim, d time.Duration, cancel *Event) bool {
	dl := DeadlineIn(s, d)
	return !cancel.WaitBy(dl) && !s.Now().Before(dl.at)
}

// Run executes fn to completion on s: fn is shuttled into a registered
// goroutine when the caller is unregistered (an unregistered goroutine must
// never park on a Sim directly — it holds no baton to put down) and runs
// inline when the caller is already registered. Public API entry points and
// test bodies use this so applications need no knowledge of the scheduler.
func Run(s *Sim, fn func()) {
	if s.isRegistered() {
		fn()
		return
	}
	done := make(chan struct{})
	s.spawn(func() {
		defer close(done)
		fn()
	}, false)
	<-done
}

// The Idle compatibility path: everything below, Sim.idlers, Sim.graceDue
// and the grace call in Sim.next exist for the two joins in
// benchmark/run.go, which only a benchmark PR may edit, and are deleted
// together by ROADMAP item 8(d).

// Idle runs fn, which blocks on a raw channel or WaitGroup, while the
// caller is parked on s: fn runs on a helper goroutine the clock does not
// schedule and the caller parks on an Event the helper sets. The wake that
// ends fn is a raw channel's, and it must be made by a goroutine the clock
// started before Idle was called, inside its fn, before that fn returns (a
// deferred wg.Done or close(done) in the fn Go was given). After such a
// return, while a helper is out, the first advance that finds the run queue
// empty is held back for graceRounds scheduler yields — a guess, sound on
// one P, where benchmark/ runs. The returns of goroutines spawned after
// Idle began (an actor's racing calls, say) hold nothing back. A raw wake
// made any other way (by a goroutine that then parks, or from outside the
// clock, or spawned after Idle began) may land after time has moved on.
// This module has no non-test caller and lambdafs-vet's virtualtime check
// keeps it so. Wait on a Mailbox, Event or Group instead.
func Idle(s *Sim, fn func()) {
	done := NewEvent(s)
	s.mu.Lock()
	s.idlers++
	s.idleSince = s.spawns
	s.mu.Unlock()
	go func() {
		fn()
		done.Set()
		s.mu.Lock()
		s.idlers--
		s.mu.Unlock()
	}()
	done.Wait()
}

// graceRounds is how many scheduler yields an advance is held back for
// after a clock goroutine returned while an Idle helper was out.
const graceRounds = 16

// grace gives the Idle helpers that are out a chance to turn a raw wake
// into a clock one (a run-queue entry) before time moves; with none out
// (the last one returned after graceDue was set) it yields nothing. Caller
// holds s.mu, which is released across each yield.
func (s *Sim) grace() {
	for i := 0; i < graceRounds && s.head == len(s.runq) && s.idlers > 0; i++ {
		s.mu.Unlock()
		runtime.Gosched()
		s.mu.Lock()
	}
}
