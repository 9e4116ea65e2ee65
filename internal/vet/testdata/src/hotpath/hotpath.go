// Package hotpath is a lambdafs-vet golden fixture for the //vet:hotpath
// contract: allocation and wall-clock reachability are flagged
// transitively through the call graph (including interface dispatch);
// pre-sized appends, clock-owned waits and signals, closures handed to
// clock.Go or clock.GoDaemon, and unreachable code are not. (A raw channel
// wait is virtualtime's finding, hot path or not.)
package hotpath

import (
	"fmt"
	"time"

	"lambdafs/internal/clock"
)

// serve is an enforced hot path: constructs it reaches — directly or
// through calls — are flagged.
//
//vet:hotpath
func serve(n int) string {
	s := format(n)
	tick() // want hotpath
	return s
}

// format is only reached from serve; its allocation is flagged
// interprocedurally.
func format(n int) string {
	return fmt.Sprintf("row-%d", n) // want hotpath
}

// tick reaches the wall clock; the finding lands on serve's call edge.
func tick() {
	_ = time.Now() //vet:allow virtualtime fixture wall-clock source
}

// gather fans its work out on a clock.Group and joins on it: no finding.
//
//vet:hotpath
func gather(clk *clock.Sim, work []func()) {
	g := clock.NewGroup(clk)
	for _, w := range work {
		g.Go(w)
	}
	g.Wait()
}

//vet:hotpath
func grow(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want hotpath
	}
	return out
}

//vet:hotpath
func label(parts []string) string {
	s := ""
	for _, p := range parts {
		s = s + p // want hotpath
	}
	return s
}

type row struct{ id int }

//vet:hotpath
func alloc(id int) *row {
	return &row{id: id} // want hotpath
}

// The struct value is copied to the caller (no finding); the slice is built
// on the heap.
//
//vet:hotpath
func values(id int) (row, []int) {
	return row{id: id}, []int{id} // want hotpath
}

//vet:hotpath
func spawn(n int) []func() int {
	fns := make([]func() int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		fns = append(fns, func() int { return i }) // want hotpath
	}
	return fns
}

type renderer interface{ render(int) string }

type csv struct{}

// render is reachable from emit only through the renderer interface —
// class-hierarchy analysis finds it.
func (csv) render(n int) string {
	return fmt.Sprintf("%d,", n) // want hotpath
}

//vet:hotpath
func emit(r renderer, n int) string {
	return r.render(n)
}

// okWait parks through the sanctioned boundary, a clock-owned mailbox: no
// finding.
//
//vet:hotpath
func okWait(mb *clock.Mailbox[int]) int {
	return mb.Recv()
}

// okSpawn hands its per-iteration closures straight to clock.Go — off the
// caller's critical path: no finding.
//
//vet:hotpath
func okSpawn(clk *clock.Sim, evs []*clock.Event) {
	for _, ev := range evs {
		clock.Go(clk, func() { ev.Wait() })
	}
}

// okDaemon hands its per-iteration ticker loops to clock.GoDaemon, exempt
// like clock.Go: no finding.
//
//vet:hotpath
func okDaemon(clk *clock.Sim, ticks []*clock.Mailbox[int]) {
	for _, t := range ticks {
		clock.GoDaemon(clk, func() { t.Recv() })
	}
}

// okPresized appends within an explicit capacity: no finding.
//
//vet:hotpath
func okPresized(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// okSignal sets a clock-owned event: no finding.
//
//vet:hotpath
func okSignal(done *clock.Event) {
	done.Set()
}

// coldFormat is not reachable from any annotated root: its allocation is
// out of scope.
func coldFormat(n int) string {
	return fmt.Sprintf("cold-%d", n)
}
