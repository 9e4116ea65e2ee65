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
// threshold reuses its client's call record: the mailbox, its receive
// record, the waiters, the primary's start record and the reply storage
// the server writes its response into. Once warm such a read allocates
// nothing. (Not under -race: the detector allocates.)
func TestHedgedFastPathAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.TCPOneWay = 300 * time.Microsecond
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Error(err)
			return
		}
		armHedging(c, time.Millisecond)
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.Do(namespace.OpRead, "/a", ""); err != nil {
				t.Error(err)
			}
		})
		if got != 0 {
			t.Errorf("a warm hedged read: %v allocs, want 0", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 101 {
			t.Errorf("stats = %+v, want 101 unhedged TCP reads", st)
		}
	})
}

// A warm replaced read races its TCP call against its HTTP invocation and
// takes both racers' state and reply storage from its client's free list,
// the losing invocation handing the record back when it finishes. It
// allocates the invocation's boxed payload alone.
func TestReplacedReadAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, c := replaceHarness(t, clk, nil, testCfg())
		read := func() {
			if _, err := c.Do(namespace.OpRead, "/a", ""); err != nil {
				t.Error(err)
			}
		}
		// Each invocation outlives five reads: let the free list and the
		// clock's pools grow to the number in flight.
		for i := 0; i < 20; i++ {
			read()
		}
		if got := testing.AllocsPerRun(100, read); got != 1 {
			t.Errorf("a warm replaced read: %v allocs, want 1", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 121 || st.HTTPRPCs != 122 {
			t.Errorf("stats = %+v, want 121 TCP calls and 122 invocations", st)
		}
	})
}

// A warm replaced write races like a replaced read: it allocates the
// invocation's boxed payload, and nothing for its Raced mark, which rides
// in the request. Every write here
// is raced, so each invocation, arriving after its client's next raced
// write, is stale, but for the last, which answers from the row.
func TestReplacedWriteAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h, c := replaceHarness(t, clk, nil, testCfg())
		create := func() {
			if _, err := c.Do(namespace.OpCreate, "/a", ""); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 20; i++ {
			create()
		}
		if got := testing.AllocsPerRun(100, create); got != 1 {
			t.Errorf("a warm replaced write: %v allocs, want 1", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 121 || st.HTTPRPCs != 122 {
			t.Errorf("stats = %+v, want 121 TCP calls and 122 invocations", st)
		}
		clk.Sleep(20 * time.Millisecond) // let the last invocation finish
		if n, replays := h.st.creates("/a"); n != 121 || replays != 1 {
			t.Errorf("%d creates acted and %d copies replayed, want 121 and 1", n, replays)
		}
	})
}
