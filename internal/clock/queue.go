package clock

import (
	"math"
	"sync"
	"time"
)

// Queue is the capacity model every modeled server shares: a FIFO queue in
// front of k identical servers, computed on virtual time. A reservation
// starts when the earliest-free server falls idle (start = max(now,
// earliest free)) and holds it for its service time (finish = start +
// service); the caller then sleeps wait + service on the clock, an exact
// wake. Reservations are served in the order Reserve is called — callers
// arriving at the same virtual instant are ordered by the queue's mutex.
//
// A Queue starts no goroutine and needs no shutdown. It is safe for
// concurrent use.
type Queue struct {
	clk     *Sim
	stretch float64 // service-time multiplier, see NewCPUQueue

	mu      sync.Mutex
	free    []time.Duration // per server: when it next falls idle, since Epoch
	pending []time.Duration // start times of the reservations that had to wait, ascending
	head    int             // pending[:head] are known to have started
}

// NewQueue returns a queue in front of k servers (minimum 1) on clk.
func NewQueue(clk *Sim, k int) *Queue {
	return &Queue{clk: clk, stretch: 1, free: make([]time.Duration, max(k, 1))}
}

// NewCPUQueue models vcpu (possibly fractional, default 1) cores:
// ceil(vcpu) servers whose service times are stretched by ceil(vcpu)/vcpu,
// so aggregate throughput is exactly vcpu seconds of work per second.
func NewCPUQueue(clk *Sim, vcpu float64) *Queue {
	if vcpu <= 0 {
		vcpu = 1
	}
	k := math.Ceil(vcpu)
	q := NewQueue(clk, int(k))
	q.stretch = k / vcpu
	return q
}

// Reserve books dur of work for a caller arriving at now and returns how
// long it waits for a server and how long the (stretched) service then
// takes; the caller owes the clock both.
func (q *Queue) Reserve(now time.Time, dur time.Duration) (wait, service time.Duration) {
	service = time.Duration(float64(dur) * q.stretch)
	at := now.Sub(Epoch)
	q.mu.Lock()
	first := 0
	for i, f := range q.free {
		if f < q.free[first] {
			first = i
		}
	}
	start := max(at, q.free[first])
	q.free[first] = start + service
	if start > at {
		q.trim(at)
		q.pending = append(q.pending, start)
	}
	q.mu.Unlock()
	return start - at, service
}

// Acquire charges dur of work: it reserves at the clock's current time and
// sleeps through the wait and the service.
func (q *Queue) Acquire(dur time.Duration) {
	if dur <= 0 {
		return
	}
	wait, service := q.Reserve(q.clk.Now(), dur)
	q.clk.Sleep(wait + service)
}

// Waiting reports how many reservations have not started service by now:
// the queue depth.
func (q *Queue) Waiting(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.trim(now.Sub(Epoch))
	return len(q.pending) - q.head
}

// trim forgets the reservations that started by at. Start times ascend
// (arrivals do, and so does the earliest-free time), so they are a prefix.
func (q *Queue) trim(at time.Duration) {
	for q.head < len(q.pending) && q.pending[q.head] <= at {
		q.head++
	}
	if q.head > len(q.pending)/2 {
		n := copy(q.pending, q.pending[q.head:])
		q.pending, q.head = q.pending[:n], 0
	}
}
