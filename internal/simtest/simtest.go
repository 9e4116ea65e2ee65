// Package simtest is the test-side entry into the simulation: components
// park on their clock.Sim, so a test body that drives them runs as one of
// its goroutines.
package simtest

import (
	"runtime"
	"testing"

	"lambdafs/internal/clock"
)

// New returns a new clock.Sim that is closed when the test ends, after the
// cleanups registered later, and drained (clock.Sim.Drained), so an
// allocation pin in a later test counts its own goroutines alone.
func New(t testing.TB) *clock.Sim {
	clk := clock.NewSim()
	t.Cleanup(func() {
		clk.Close()
		for !clk.Drained() {
			runtime.Gosched()
		}
	})
	return clk
}

// Run runs body as a goroutine of a new Sim (New), which schedules every
// goroutine body starts through it, so the test is the same run every time.
func Run(t testing.TB, body func(clk *clock.Sim)) {
	t.Helper()
	clk := New(t)
	clock.Run(clk, func() { body(clk) })
}
