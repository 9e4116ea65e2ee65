// Package virtualtime is a lambdafs-vet golden fixture: wall-clock reads,
// raw channel waits, clock.Idle-wrapped waits and bare go statements must
// be flagged, once per line; duration arithmetic, clock-owned waits and
// clock-started goroutines must not, and a reasoned //vet:allow must
// suppress.
package virtualtime

import (
	"sync"
	"time"

	"lambdafs/internal/clock"
)

func bad() time.Time {
	time.Sleep(time.Millisecond) // want virtualtime
	t := time.Now()              // want virtualtime
	return t
}

func badWait() {
	<-time.After(time.Millisecond) // want virtualtime
}

// badJoin waits on a raw channel inside Idle: the clock cannot hand the woken
// goroutine its token, so the wake is a guess.
func badJoin(clk *clock.Sim, done chan struct{}) {
	clock.Idle(clk, func() { <-done }) // want virtualtime
}

// badSpawn starts a goroutine the clock does not schedule: on a clock.Sim it
// runs beside the baton holder instead of in its turn.
func badSpawn(clk *clock.Sim, work func()) {
	go work() // want virtualtime
}

// Raw channel operations are waits clock.Sim cannot see, whatever a held
// lock, a buffer, a default case or the goroutine's starter says about
// them. A select reports once, at the select.
func badSend(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want virtualtime
	mu.Unlock()
}

func badRecv(ch chan int) int {
	return <-ch // want virtualtime
}

func badSelect(ch chan int) int {
	select { // want virtualtime
	case v := <-ch:
		return v
	}
}

func badBufferedWake() {
	wake := make(chan struct{}, 1)
	wake <- struct{}{} // want virtualtime
	<-wake             // want virtualtime
}

func badNonBlockingSelect(ch chan int) (v int) {
	select { // want virtualtime
	case v = <-ch:
	default:
	}
	return v
}

func badGather(ch chan int, n int) (total int) {
	for i := 0; i < n; i++ {
		total += <-ch // want virtualtime
	}
	return total
}

func badRange(ch chan int) (total int) {
	for v := range ch { // want virtualtime
		total += v
	}
	return total
}

func badHandedOff(clk *clock.Sim, chs []chan int, ticks chan int) {
	for _, ch := range chs {
		clock.Go(clk, func() { <-ch }) // want virtualtime
	}
	clock.GoDaemon(clk, func() { <-ticks }) // want virtualtime
}

// cleanSpawn starts its goroutines through the clock.
func cleanSpawn(clk *clock.Sim, work, tick func()) {
	clock.Go(clk, work)
	clock.GoDaemon(clk, tick)
}

// cleanJoin waits on clock-owned primitives.
func cleanJoin(done *clock.Event, g *clock.Group) {
	done.Wait()
	g.Wait()
}

func clean() time.Duration {
	d := 3 * time.Second // duration arithmetic never reads the clock
	return d + time.Millisecond
}

func allowed() time.Time {
	return time.Now() //vet:allow virtualtime fixture demonstrating a reasoned suppression
}

// hostDuration mirrors the sanctioned shape of the bench profiler's
// wall-clock helper: how long the host took to run a profiled simulation
// is genuinely a wall-clock question, and both the start read and the
// elapsed read need their own reasoned suppression.
func hostDuration(fn func()) time.Duration {
	start := time.Now() //vet:allow virtualtime measures host runtime of the profiled run, not simulated latency
	fn()
	return time.Since(start) //vet:allow virtualtime host-runtime measurement is genuinely wall-clock
}
