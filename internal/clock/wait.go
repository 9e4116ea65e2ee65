package clock

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The one way to wait for something other than time: a value (Mailbox), a
// state that never reverts (Event), a set of goroutines (Group), each
// optionally bounded by a Deadline. All park on one waiter and wake through
// one hand-off (Sim.park, Sim.wake), so a wake by event is scheduled exactly
// like a wake by deadline.

// waiter is one goroutine parked until an event source or a deadline wakes
// it, whichever gets to it first.
type waiter struct {
	ch      chan bool   // capacity 1, for the outcome: true = the deadline won
	claimed atomic.Bool // set by the first waker to reach the waiter
	sim     *Sim        // the clock it waits on

	// The deadline-heap entry, guarded by Sim.mu.
	deadlineNS int64
	seq        uint64 // arm order, the tie-break among equal deadlines
	idx        int
	queued     bool
}

func newWaiter(s *Sim) waiter { return waiter{ch: make(chan bool, 1), sim: s} }

// getWaiter returns a waiter for one wait on s: a spent one from s.spare,
// unclaimed again, or a new one.
//
// The reuse rule: a wait gives its waiter back (putWaiter) only when no
// source lists it and no waker can still reach it. park's return settles
// the clock's side — the deadline heap no longer holds the waiter, the
// run-queue slot that resumed it was cleared, its channel is drained. The
// source's side is settled under the source's lock: a source wakes the
// waiters it lists while holding that lock (Event.Set under e.mu,
// Mailbox.handOff under m.mu), and a wait whose deadline won takes its
// waiter off the list under the same lock before giving it back. So a late
// Set or Offer racing a deadline that won either reaches the waiter while it
// is still this wait's, where the claim is already taken, or finds it gone
// from the list; it never wakes the waiter's next wait.
func (s *Sim) getWaiter() *waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.spare); n > 0 {
		w := s.spare[n-1]
		s.spare = s.spare[:n-1]
		w.claimed.Store(false)
		return w
	}
	w := newWaiter(s)
	return &w
}

// putWaiter gives a spent waiter back to s (the reuse rule at getWaiter).
func (s *Sim) putWaiter(w *waiter) {
	s.mu.Lock()
	s.spare = append(s.spare, w)
	s.mu.Unlock()
}

// wake ends the wait on w with the given outcome unless somebody else's
// wake got there first (Sim.wake).
func (w *waiter) wake(expired bool) bool { return w.sim.wake(w, expired) }

// park blocks the calling goroutine on w until its event source or dl wakes
// it, and reports whether the deadline did — in which case the caller takes
// w off the source's list.
func (w *waiter) park(dl Deadline) (expired bool) {
	if dl.at.IsZero() {
		return w.sim.park(w, 0)
	}
	return w.sim.park(w, int64(dl.at.Sub(Epoch)))
}

// without returns list with w taken off it.
func without[W comparable](list []W, w W) []W {
	if i := slices.Index(list, w); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// Deadline bounds a wait on a Mailbox or an Event. The zero Deadline never
// expires. A Deadline is an instant, so several waits can share one.
type Deadline struct{ at time.Time }

// DeadlineIn returns the deadline d of virtual time from now: a straggler
// threshold, a polling period, a lock-wait or ACK-round bound.
func DeadlineIn(s *Sim, d time.Duration) Deadline {
	return Deadline{at: s.Now().Add(d)}
}

// Mailbox is an unbounded FIFO of values between goroutines on one clock:
// Send never blocks, Recv parks until a value arrives. A value sent while
// receivers are parked goes directly to the one that has waited longest — a
// woken receiver owns its value and never re-checks the queue. Pre-filled
// with n tokens, a Mailbox[struct{}] is a counting semaphore (Recv
// acquires, Send releases).
type Mailbox[T any] struct {
	clk   *Sim
	mu    sync.Mutex
	queue []T
	recvs []*recv[T] // parked receivers, longest-waiting first
	spare []*recv[T] // spent receive records, for reuse
}

// recv is one parked receive: its waiter and the value handed to it.
type recv[T any] struct {
	w *waiter
	v T
}

// NewMailbox returns an empty mailbox on clk.
func NewMailbox[T any](clk *Sim) *Mailbox[T] { return &Mailbox[T]{clk: clk} }

// Send delivers v: to the longest-parked receiver, or else onto the queue.
func (m *Mailbox[T]) Send(v T) {
	m.mu.Lock()
	if !m.handOff(v) {
		m.queue = append(m.queue, v)
	}
	m.mu.Unlock()
}

// Offer delivers v only if a receiver is parked for it, and reports whether
// one was; otherwise v is dropped. It is Send for a wake-up that is worth
// nothing to a receiver arriving later.
func (m *Mailbox[T]) Offer(v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handOff(v)
}

// handOff gives v to the first parked receiver whose deadline has not
// claimed it already. Caller holds m.mu.
func (m *Mailbox[T]) handOff(v T) bool {
	for len(m.recvs) > 0 {
		r := m.recvs[0]
		m.recvs = slices.Delete(m.recvs, 0, 1)
		r.v = v // read only by a receiver this wake wins
		if r.w.wake(false) {
			return true
		}
	}
	return false
}

// Recv takes the next value, parking until there is one.
func (m *Mailbox[T]) Recv() T {
	v, _ := m.RecvBy(Deadline{})
	return v
}

// RecvBy is Recv that gives up at dl; ok reports whether a value came first.
func (m *Mailbox[T]) RecvBy(dl Deadline) (v T, ok bool) {
	m.mu.Lock()
	if len(m.queue) > 0 {
		v = m.queue[0]
		m.queue = slices.Delete(m.queue, 0, 1)
		m.mu.Unlock()
		return v, true
	}
	var r *recv[T]
	if n := len(m.spare); n > 0 {
		r, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		r = new(recv[T])
	}
	r.w = m.clk.getWaiter()
	m.recvs = append(m.recvs, r)
	m.mu.Unlock()
	expired := r.w.park(dl)
	m.mu.Lock()
	if expired {
		m.recvs = without(m.recvs, r)
	} else {
		v = r.v
	}
	m.clk.putWaiter(r.w)
	*r = recv[T]{}
	m.spare = append(m.spare, r)
	m.mu.Unlock()
	return v, !expired
}

// Event is a sticky broadcast: once Set it stays set, and every Wait —
// parked before or arriving after — returns. It is what a closed
// chan struct{} is to plain goroutines: shutdown, termination, a grant.
type Event struct {
	clk     *Sim
	mu      sync.Mutex
	set     bool
	waiters []*waiter
	first   [1]*waiter // waiters' first backing array: one waiter needs no list of its own
}

// NewEvent returns an unset event on clk.
func NewEvent(clk *Sim) *Event {
	e := &Event{clk: clk}
	e.waiters = e.first[:0]
	return e
}

// Set sets the event and wakes everything parked on it. Setting a set
// event does nothing. It wakes under e.mu, so a waiter whose deadline won
// and that went back to the pool is out of its reach (getWaiter).
func (e *Event) Set() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.set = true
	for _, w := range e.waiters {
		w.wake(false)
	}
	e.waiters = nil
}

// Reset unsets the event, so its owner can reuse it. Nothing may be
// parked on it.
func (e *Event) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.set = false
	clear(e.first[:])
	e.waiters = e.first[:0]
}

// IsSet reports whether the event has been set, without waiting.
func (e *Event) IsSet() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set
}

// Wait parks until the event is set.
func (e *Event) Wait() { e.WaitBy(Deadline{}) }

// WaitBy is Wait that gives up at dl; it reports whether the event was set
// first. An event already set wins over a deadline already past.
func (e *Event) WaitBy(dl Deadline) bool {
	e.mu.Lock()
	if e.set {
		e.mu.Unlock()
		return true
	}
	w := e.clk.getWaiter()
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	expired := w.park(dl)
	if expired {
		e.mu.Lock()
		e.waiters = without(e.waiters, w)
		e.mu.Unlock()
	}
	e.clk.putWaiter(w)
	return !expired
}

// Group is a fan-out/join: Go starts goroutines on the clock, Wait parks
// until all of them have returned. Add and Done account for work that runs
// on a goroutine somebody else starts. Like a sync.WaitGroup, a Group can be
// reused once Wait has returned.
type Group struct {
	clk  *Sim
	mu   sync.Mutex
	n    int
	idle *Event // what Wait parks on while n > 0; nil when nobody waits
}

// NewGroup returns an empty group on clk.
func NewGroup(clk *Sim) *Group { return &Group{clk: clk} }

// Go runs fn on a goroutine of the group's clock (see the package's Go).
func (g *Group) Go(fn func()) {
	g.Add(1)
	Go(g.clk, func() {
		defer g.Done()
		fn()
	})
}

// Add adds n, which may be negative, to the count of unfinished work; at
// zero every Wait returns.
func (g *Group) Add(n int) {
	g.mu.Lock()
	g.n += n
	if g.n < 0 {
		panic("clock: negative Group count")
	}
	var idle *Event
	if g.n == 0 {
		idle, g.idle = g.idle, nil
	}
	g.mu.Unlock()
	if idle != nil {
		idle.Set()
	}
}

// Done is Add(-1).
func (g *Group) Done() { g.Add(-1) }

// Wait parks until the count is zero.
func (g *Group) Wait() {
	g.mu.Lock()
	if g.n > 0 && g.idle == nil {
		g.idle = NewEvent(g.clk)
	}
	idle := g.idle
	g.mu.Unlock()
	if idle != nil {
		idle.Wait()
	}
}
