//go:build !race

package rpc

import (
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// A hedge-eligible read whose primary answers before the straggler
// threshold reuses its client's hedged call: the mailbox, its receive
// record, the waiters and the primary's start record. Once warm such a read
// allocates one object: the response the server builds.
// (Not under -race: the detector allocates.)
func TestHedgedFastPathAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.Hedging = true
		cfg.LatencyWindow = 4
		cfg.TCPOneWay = 300 * time.Microsecond
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			c.window.Add(time.Millisecond) // arm hedging
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.Do(namespace.OpRead, "/a", ""); err != nil {
				t.Error(err)
			}
		})
		if got != 1 {
			t.Errorf("a warm hedged read: %v allocs, want 1", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 101 {
			t.Errorf("stats = %+v, want 101 unhedged TCP reads", st)
		}
	})
}
