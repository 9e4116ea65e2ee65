package clock

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSameInstantOrder states the Sim's order rule observably: among
// goroutines runnable at one virtual instant the clock, not the host,
// decides who runs next — woken goroutines in wake order and spawned ones
// in spawn order, after the goroutine that woke or spawned them parks, and
// sleepers due together in the order they went to sleep. The log is
// appended to with no lock: only the baton holder runs. Run at -cpu 1,2,4.
func TestSameInstantOrder(t *testing.T) {
	const n = 32
	perm := rand.New(rand.NewSource(7)).Perm(n)
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	const parent = -1 // the goroutine that spawns and wakes, in the log
	after := func(order []int) []int { return append([]int{parent}, order...) }

	for _, tc := range []struct {
		name string
		body func(s *Sim, log *[]int)
		want []int
	}{
		{"spawns run in spawn order once the spawner parks", func(s *Sim, log *[]int) {
			g := NewGroup(s)
			for i := 0; i < n; i++ {
				g.Go(func() { *log = append(*log, i) })
			}
			*log = append(*log, parent)
			g.Wait()
		}, after(ident)},
		{"sleepers due together wake in the order they went to sleep", func(s *Sim, log *[]int) {
			g := NewGroup(s)
			for _, i := range perm {
				// Started in spawn order, so armed in perm order, all for 1ms.
				g.Go(func() { s.Sleep(time.Millisecond); *log = append(*log, i) })
			}
			*log = append(*log, parent)
			g.Wait()
		}, after(perm)},
		{"receivers run in the order their values were sent", func(s *Sim, log *[]int) {
			g := NewGroup(s)
			boxes := make([]*Mailbox[int], n)
			for i := range boxes {
				boxes[i] = NewMailbox[int](s)
				g.Go(func() { *log = append(*log, boxes[i].Recv()) })
			}
			s.Sleep(time.Millisecond) // everybody is parked
			for _, i := range perm {
				boxes[i].Send(i)
			}
			*log = append(*log, parent)
			g.Wait()
		}, after(perm)},
		{"waiters on one event run in the order they parked, waiters on several in Set order", func(s *Sim, log *[]int) {
			g := NewGroup(s)
			shared := NewEvent(s)
			own := make([]*Event, n)
			for i := range own {
				own[i] = NewEvent(s)
				g.Go(func() { shared.Wait(); *log = append(*log, i) })
				g.Go(func() { own[i].Wait(); *log = append(*log, n+i) })
			}
			s.Sleep(time.Millisecond)
			for _, i := range perm {
				own[i].Set()
			}
			shared.Set()
			*log = append(*log, parent)
			g.Wait()
		}, func() []int {
			want := []int{parent}
			for _, i := range perm {
				want = append(want, n+i)
			}
			return append(want, ident...)
		}()},
		{"a goroutine woken at an instant runs behind the sleepers already due then", func(s *Sim, log *[]int) {
			g := NewGroup(s)
			mb := NewMailbox[int](s)
			g.Go(func() { s.Sleep(time.Millisecond); *log = append(*log, 0) })
			g.Go(func() { *log = append(*log, mb.Recv()) })
			s.Sleep(time.Millisecond) // parks, and so arms, before either spawn has run
			mb.Send(1)
			*log = append(*log, parent)
			g.Wait()
		}, []int{parent, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim()
			defer s.Close()
			var log []int
			Run(s, func() { tc.body(s, &log) })
			if !slices.Equal(log, tc.want) {
				t.Errorf("ran in order %v\nwant %v", log, tc.want)
			}
		})
	}
}

// traceWorkload runs 64 actors that contend for a lock-style semaphore,
// queue on a two-server Queue, pass values round a ring of mailboxes, hedge
// a receive with a deadline and sleep seeded amounts, and returns the
// (instant, actor, step) log of everything they did.
func traceWorkload() []byte {
	const actors, rounds = 64, 12
	s := NewSim()
	defer s.Close()
	var log bytes.Buffer
	Run(s, func() {
		lock := NewMailbox[struct{}](s)
		lock.Send(struct{}{})
		cpu := NewQueue(s, 2)
		ring := make([]*Mailbox[int], actors)
		for i := range ring {
			ring[i] = NewMailbox[int](s)
		}
		stop := NewEvent(s)
		g := NewGroup(s)
		for a := 0; a < actors; a++ {
			rng := rand.New(rand.NewSource(int64(a) + 1)) // seeded per actor
			g.Go(func() {
				step := func(what string) {
					fmt.Fprintf(&log, "%d %d %s\n", s.Since(Epoch), a, what)
				}
				for r := 0; r < rounds; r++ {
					s.Sleep(time.Duration(rng.Intn(4)) * 50 * time.Microsecond) // coarse grid: many ties
					step("woke")
					lock.Recv()
					step("locked")
					cpu.Acquire(30 * time.Microsecond)
					lock.Send(struct{}{})
					ring[(a+1)%actors].Send(a)
					if from, ok := ring[a].RecvBy(DeadlineIn(s, 100*time.Microsecond)); ok {
						step(fmt.Sprint("got ", from))
					} else {
						step("gave up")
					}
				}
				step("done")
			})
		}
		GoDaemon(s, func() {
			for SleepOr(s, 75*time.Microsecond, stop) {
				fmt.Fprintf(&log, "%d tick\n", s.Since(Epoch))
			}
		})
		g.Wait()
		stop.Set()
	})
	return log.Bytes()
}

// TestTraceIsBitDeterministic: a simulation whose goroutines are all
// clock-started steps the same way every time — the workload's whole
// (instant, actor) trace is byte-identical over 21 runs, seven each on one,
// two and four Ps.
func TestTraceIsBitDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for run := 0; run < 21; run++ {
		procs := 1 << (run % 3)
		runtime.GOMAXPROCS(procs)
		got := traceWorkload()
		if first == nil {
			first = got
			if lines := bytes.Count(first, []byte("\n")); lines < 64*12*3 {
				t.Fatalf("trace has %d lines; the workload did not run", lines)
			}
			continue
		}
		if !bytes.Equal(got, first) {
			a, b := bytes.Split(first, []byte("\n")), bytes.Split(got, []byte("\n"))
			i := 0
			for i < len(a) && i < len(b) && bytes.Equal(a[i], b[i]) {
				i++
			}
			t.Fatalf("run %d (GOMAXPROCS=%d) diverges from run 0 at line %d:\n run 0: %s\n run %d: %s",
				run, procs, i, a[min(i, len(a)-1)], run, b[min(i, len(b)-1)])
		}
	}
}
