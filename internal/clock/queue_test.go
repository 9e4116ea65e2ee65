package clock

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refTask is one unit of work for refPool; the worker that serves it
// stamps when it was dequeued and when its service ended.
type refTask struct {
	dur, arrival, start, finish time.Duration
	done                        *Event
}

// refPool is the design Queue replaced, kept here as its reference:
// ceil(vcpu) goroutines on a Sim clock take tasks off one Mailbox, sleep
// the service time stretched by ceil(vcpu)/vcpu and set done; a nil task
// stops a worker. It feeds the pool one task per (gap, dur) pair from a
// single driver, so tasks enter the mailbox in index order, and returns
// them served. Every wait is the clock's, so the pool is exact on any
// number of Ps.
func refPool(vcpu float64, gaps, durs []time.Duration) []*refTask {
	s := NewSim()
	defer s.Close()
	workers := int(math.Ceil(vcpu))
	adjust := float64(workers) / vcpu
	out := make([]*refTask, len(durs))
	Run(s, func() {
		tasks := NewMailbox[*refTask](s)
		for w := 0; w < workers; w++ {
			Go(s, func() {
				for tk := tasks.Recv(); tk != nil; tk = tasks.Recv() {
					tk.start = s.Since(Epoch)
					s.Sleep(time.Duration(float64(tk.dur) * adjust))
					tk.finish = s.Since(Epoch)
					tk.done.Set()
				}
			})
		}
		for i, dur := range durs {
			s.Sleep(gaps[i])
			out[i] = &refTask{dur: dur, arrival: s.Since(Epoch), done: NewEvent(s)}
			tasks.Send(out[i])
		}
		for _, tk := range out {
			tk.done.Wait()
		}
		for w := 0; w < workers; w++ {
			tasks.Send(nil)
		}
	})
	return out
}

// TestQueueMatchesWorkerPool: the arithmetic queue serves every task in
// exactly the window the goroutine pool did, and reports at every arrival
// the depth the pool's channel held (the earlier tasks no worker had yet
// dequeued) — for whole and fractional vCPU counts, bursts at one instant
// and zero-length work.
func TestQueueMatchesWorkerPool(t *testing.T) {
	for seed, vcpu := range []float64{1, 2, 7, 8, 0.5, 6.25} {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		const n = 300
		// Every other schedule runs on a 50µs grid, so arrivals land
		// exactly on service starts and finishes.
		grid := time.Duration(1 + seed%2*49_999)
		gaps := make([]time.Duration, n)
		durs := make([]time.Duration, n)
		for i := range durs {
			switch rng.Intn(3) {
			case 0: // burst: same instant as the previous arrival
			case 1:
				gaps[i] = time.Duration(rng.Intn(40_000))
			default:
				gaps[i] = time.Duration(rng.Intn(int(400_000 / vcpu)))
			}
			if rng.Intn(8) > 0 {
				durs[i] = time.Duration(rng.Intn(500_000))
			}
			gaps[i] -= gaps[i] % grid
			durs[i] -= durs[i] % grid
		}
		ref := refPool(vcpu, gaps, durs)

		q := NewCPUQueue(nil, vcpu) // Reserve and Waiting take their instants from the caller
		at := Epoch
		maxDepth := 0
		for i, tk := range ref {
			at = at.Add(gaps[i])
			if got := at.Sub(Epoch); got != tk.arrival {
				t.Fatalf("vcpu=%v task %d: reference arrived at %v, want %v", vcpu, i, tk.arrival, got)
			}
			depth := 0
			for _, earlier := range ref[:i] {
				if earlier.start > tk.arrival {
					depth++
				}
			}
			maxDepth = max(maxDepth, depth)
			if got := q.Waiting(at); got != depth {
				t.Fatalf("vcpu=%v task %d: Waiting = %d, pool held %d", vcpu, i, got, depth)
			}
			wait, service := q.Reserve(at, durs[i])
			start := tk.arrival + wait
			if start != tk.start || start+service != tk.finish {
				t.Fatalf("vcpu=%v task %d: queue serves [%v, %v], pool served [%v, %v]",
					vcpu, i, start, start+service, tk.start, tk.finish)
			}
		}
		if maxDepth == 0 {
			t.Fatalf("vcpu=%v: the schedule never queued; the test proves nothing", vcpu)
		}
	}
}

// TestQueueAcquire: Acquire holds its caller for the wait and the service,
// first come first served.
func TestQueueAcquire(t *testing.T) {
	s := NewSim()
	defer s.Close()
	q := NewQueue(s, 1)
	Run(s, func() {
		var done [2]time.Duration
		callers := NewGroup(s)
		for i := range done {
			callers.Go(func() {
				q.Acquire(10 * time.Millisecond)
				done[i] = s.Since(Epoch)
			})
		}
		s.Sleep(time.Millisecond)
		if n := q.Waiting(s.Now()); n != 1 {
			t.Errorf("Waiting = %d with one server and two callers, want 1", n)
		}
		s.Sleep(10 * time.Millisecond)
		if n := q.Waiting(s.Now()); n != 0 {
			t.Errorf("Waiting = %d once the second caller is in service, want 0", n)
		}
		callers.Wait()
		if want := [2]time.Duration{10 * time.Millisecond, 20 * time.Millisecond}; done != want {
			t.Errorf("callers finished at %v, want %v", done, want)
		}
	})
}

// TestQueueBacklogMemoryIsBounded: a queue that stays saturated (the
// backlog never drains to zero) must not remember every reservation it
// ever made.
func TestQueueBacklogMemoryIsBounded(t *testing.T) {
	q := NewQueue(nil, 2) // only Acquire reads the clock
	at := Epoch
	for i := 0; i < 100_000; i++ {
		at = at.Add(time.Millisecond)
		if i < 8 {
			q.Reserve(at, 2*time.Millisecond) // build a standing backlog
		}
		q.Reserve(at, 2*time.Millisecond) // arrival rate == service rate
	}
	if n := q.Waiting(at); n < 4 {
		t.Fatalf("Waiting = %d, expected a standing backlog", n)
	}
	if c := cap(q.pending); c > 1024 {
		t.Fatalf("pending grew to cap %d under a standing backlog of %d", c, q.Waiting(at))
	}
}
