package clock

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refTask is one unit of work for refPool; the worker that serves it
// stamps when it was dequeued and when its service ended.
type refTask struct {
	dur, arrival, start, finish time.Duration
	done                        chan struct{}
}

// refPool is the design Queue replaced, kept here as its reference:
// ceil(vcpu) goroutines on a Sim clock pull tasks off one channel, sleep
// the service time stretched by ceil(vcpu)/vcpu and close done. It feeds
// the pool one task per (gap, dur) pair from a single driver, so tasks
// enter the channel in index order, and returns them served.
//
// The pool's channel hand-offs are waits the Sim monitor detects only
// heuristically (clock.Idle); they are reliable on one P, where a woken
// goroutine always runs before the monitor's grace yields run out.
func refPool(vcpu float64, gaps, durs []time.Duration) []*refTask {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSim()
	defer s.Close()
	workers := int(math.Ceil(vcpu))
	adjust := float64(workers) / vcpu
	tasks := make(chan *refTask, len(durs))
	for w := 0; w < workers; w++ {
		Go(s, func() {
			for {
				var tk *refTask
				var ok bool
				Idle(s, func() { tk, ok = <-tasks })
				if !ok {
					return
				}
				tk.start = s.Since(Epoch)
				s.Sleep(time.Duration(float64(tk.dur) * adjust))
				tk.finish = s.Since(Epoch)
				close(tk.done)
			}
		})
	}
	out := make([]*refTask, len(durs))
	Run(s, func() {
		for i, dur := range durs {
			s.Sleep(gaps[i])
			out[i] = &refTask{dur: dur, arrival: s.Since(Epoch), done: make(chan struct{})}
			tasks <- out[i]
		}
		for _, tk := range out {
			Idle(s, func() { <-tk.done })
		}
	})
	close(tasks)
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

		q := NewCPUQueue(NewManual(), vcpu)
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

// TestQueueZeroScaleNeverBacklogs: on a zero-scale clock sleeps return at
// once while Now creeps forward in real time; a queue that booked servers
// there would report hours of backlog nobody ever waits for.
func TestQueueZeroScaleNeverBacklogs(t *testing.T) {
	clk := NewScaled(0)
	q := NewQueue(clk, 1)
	for i := 0; i < 100; i++ {
		if wait, service := q.Reserve(clk.Now(), time.Hour); wait != 0 || service != time.Hour {
			t.Fatalf("reservation %d: wait %v service %v, want 0 and 1h", i, wait, service)
		}
		q.Acquire(time.Hour)
		if n := q.Waiting(clk.Now()); n != 0 {
			t.Fatalf("reservation %d: %d waiting on a clock that never sleeps", i, n)
		}
	}
}

// TestQueueAcquireOnManualClock: Acquire holds its caller for the wait
// and the service, released only by Advance.
func TestQueueAcquireOnManualClock(t *testing.T) {
	m := NewManual()
	q := NewQueue(m, 1)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			q.Acquire(10 * time.Millisecond)
			done <- i
		}()
		for m.Waiters() != i+1 {
			runtime.Gosched()
		}
	}
	if n := q.Waiting(m.Now()); n != 1 {
		t.Fatalf("Waiting = %d with one server and two callers, want 1", n)
	}
	m.Advance(10 * time.Millisecond)
	if first := <-done; first != 0 {
		t.Fatalf("caller %d finished first, want FIFO", first)
	}
	select {
	case <-done:
		t.Fatal("second caller finished before its service ended")
	default:
	}
	if n := q.Waiting(m.Now()); n != 0 {
		t.Fatalf("Waiting = %d once the second caller is in service, want 0", n)
	}
	m.Advance(10 * time.Millisecond)
	<-done
}

// TestQueueBacklogMemoryIsBounded: a queue that stays saturated (the
// backlog never drains to zero) must not remember every reservation it
// ever made.
func TestQueueBacklogMemoryIsBounded(t *testing.T) {
	q := NewQueue(NewManual(), 2)
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
