// Package sim is a discrete-event scheduler: callbacks on a binary
// min-heap keyed by (virtual time, sequence number), executed one at a
// time by a single goroutine. It drove the queueing-model scale
// experiment until that was replaced by the real stack on clock.Sim;
// nothing in the product imports it any more. It stays because
// benchmark/layers.go times its event loop as sim.host_ns_per_event, and
// it goes with that metric (ROADMAP item 8(d)).
//
// # Determinism
//
// A Scheduler run is a pure function of the callbacks scheduled into it:
// events fire in strictly non-decreasing virtual time, and events
// scheduled for the same instant fire in the order they were scheduled
// (the sequence number breaks ties, making the heap FIFO-stable). Digest
// seals the executed event order so tests can assert replay-exactness.
//
// # Concurrency and ownership
//
// A Scheduler is single-threaded by construction and not safe for
// concurrent use: exactly one goroutine calls Run/RunUntil, and
// callbacks run on that goroutine. Callbacks may schedule further events
// but must never block — there is no other goroutine to unblock them.
package sim

import "time"

// event is one scheduled callback. due is virtual nanoseconds since
// Epoch; seq breaks ties FIFO so simultaneous events fire in scheduling
// order.
type event struct {
	due int64
	seq uint64
	fn  func()
}

// Scheduler is a deterministic discrete-event runtime. The zero value is
// ready to use; New adds a capacity hint.
type Scheduler struct {
	now      int64 // virtual ns since clock.Epoch
	seq      uint64
	heap     []event
	executed uint64
	digest   uint64
}

// New returns a Scheduler whose event heap is pre-sized for hint pending
// events (one per concurrent client is the right order of magnitude).
func New(hint int) *Scheduler {
	s := &Scheduler{}
	if hint > 0 {
		s.heap = make([]event, 0, hint)
	}
	return s
}

// Now returns the current virtual time as an offset from clock.Epoch.
func (s *Scheduler) Now() time.Duration { return time.Duration(s.now) }

// After schedules fn to run d from now (immediately, but still in FIFO
// order, when d <= 0). fn runs on the Run goroutine and must not block.
func (s *Scheduler) After(d time.Duration, fn func()) {
	due := s.now + int64(d)
	if due < s.now {
		due = s.now
	}
	s.seq++
	s.push(event{due: due, seq: s.seq, fn: fn})
}

// At schedules fn at the absolute virtual offset t from Epoch, clamped
// to now when t is already past.
func (s *Scheduler) At(t time.Duration, fn func()) { s.After(t-time.Duration(s.now), fn) }

// Pending returns the number of scheduled events not yet executed.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Executed returns the count of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Digest returns an FNV-style hash over the (due, seq) pairs of every
// executed event, in execution order: two runs that made identical
// scheduling decisions have identical digests.
func (s *Scheduler) Digest() uint64 { return s.digest }

// Run executes events in (time, seq) order until the heap is empty.
func (s *Scheduler) Run() { s.run(1<<63 - 1) }

// RunUntil executes events with due times <= the absolute virtual offset
// t, then advances the clock to exactly t. Events scheduled beyond t
// stay pending for a later Run/RunUntil call.
func (s *Scheduler) RunUntil(t time.Duration) {
	limit := int64(t)
	s.run(limit)
	if s.now < limit {
		s.now = limit
	}
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// run is the event loop: pop the earliest event, advance virtual time to
// it, fold it into the digest, dispatch. Dispatch goes through the
// stored func value, so the loop itself stays allocation- and
// formatting-free regardless of what the callbacks do.
func (s *Scheduler) run(limit int64) {
	for len(s.heap) > 0 && s.heap[0].due <= limit {
		e := s.pop()
		s.now = e.due
		s.executed++
		h := s.digest
		if h == 0 {
			h = fnvOffset64
		}
		h = (h ^ uint64(e.due)) * fnvPrime64
		h = (h ^ e.seq) * fnvPrime64
		s.digest = h
		e.fn()
	}
}

// less orders the heap by (due, seq): earliest first, FIFO on ties.
func (s *Scheduler) less(i, j int) bool {
	a, b := &s.heap[i], &s.heap[j]
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(e event) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// pop removes and returns the minimum event. Hand-rolled (rather than
// container/heap) to keep the event loop free of interface boxing and
// per-operation allocations at million-event scale.
func (s *Scheduler) pop() event {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap[n] = event{}
	s.heap = s.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}
