// Package simtest is the test-side entry into the simulation: components
// park on their clock.Sim, so a test body that drives them runs as one of
// its goroutines.
package simtest

import (
	"testing"

	"lambdafs/internal/clock"
)

// Run runs body as a goroutine of a new clock.Sim, which is closed when the
// test ends (after the cleanups body registers). Goroutines body starts with
// clock.Go or a clock.Group are scheduled by the clock, so the test is the
// same run every time.
func Run(t testing.TB, body func(clk *clock.Sim)) {
	t.Helper()
	clk := clock.NewSim()
	t.Cleanup(clk.Close)
	clock.Run(clk, func() { body(clk) })
}
