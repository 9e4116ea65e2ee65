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
}

type recv[T any] struct {
	waiter
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
		if r.wake(false) {
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
	r := &recv[T]{waiter: newWaiter(m.clk)}
	m.recvs = append(m.recvs, r)
	m.mu.Unlock()
	if r.park(dl) {
		m.mu.Lock()
		m.recvs = without(m.recvs, r)
		m.mu.Unlock()
		return v, false
	}
	return r.v, true
}

// Event is a sticky broadcast: once Set it stays set, and every Wait —
// parked before or arriving after — returns. It is what a closed
// chan struct{} is to plain goroutines: shutdown, termination, a grant.
type Event struct {
	clk     *Sim
	mu      sync.Mutex
	set     bool
	waiters []*waiter
}

// NewEvent returns an unset event on clk.
func NewEvent(clk *Sim) *Event { return &Event{clk: clk} }

// Set sets the event and wakes everything parked on it. Setting a set
// event does nothing.
func (e *Event) Set() {
	e.mu.Lock()
	ws := e.waiters
	e.set, e.waiters = true, nil
	e.mu.Unlock()
	for _, w := range ws {
		w.wake(false)
	}
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
	w := newWaiter(e.clk)
	e.waiters = append(e.waiters, &w)
	e.mu.Unlock()
	if w.park(dl) {
		e.mu.Lock()
		e.waiters = without(e.waiters, &w)
		e.mu.Unlock()
		return false
	}
	return true
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

// Go runs fn on a new goroutine of the group's clock (see the package's Go).
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
