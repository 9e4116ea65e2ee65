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
// takes its record, both racers' reply storage and the invocation's payload
// from its client's free lists. The losing invocation leaves the record
// when the race is decided, and hands its own storage back when it ends,
// so the client keeps at most two call records however many invocations
// are out. It allocates nothing.
func TestReplacedReadAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, c := replaceHarness(t, clk, nil, testCfg())
		read := func() {
			if _, err := c.Do(namespace.OpRead, "/a", ""); err != nil {
				t.Error(err)
			}
		}
		// Each invocation outlives five reads: let the free lists and the
		// clock's pools grow to the number in flight.
		for i := 0; i < 20; i++ {
			read()
		}
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("a warm replaced read: %v allocs, want 0", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 121 || st.HTTPRPCs != 122 {
			t.Errorf("stats = %+v, want 121 TCP calls and 122 invocations", st)
		}
		clk.Sleep(20 * time.Millisecond) // let the last invocation finish
		if n := records(c); n > 2 {
			t.Errorf("the client keeps %d call records, want at most 2", n)
		}
	})
}

// A warm replaced write races like a replaced read: it allocates nothing,
// for its Raced mark rides in the request, and its client keeps at most two
// call records. Every write here is raced and its TCP call wins, so each
// invocation reaches its NameNode after its race was decided and runs
// nothing: the store sees each create once, and no copy answers from the
// row.
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
		if got := testing.AllocsPerRun(100, create); got != 0 {
			t.Errorf("a warm replaced write: %v allocs, want 0", got)
		}
		if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 121 || st.HTTPRPCs != 122 {
			t.Errorf("stats = %+v, want 121 TCP calls and 122 invocations", st)
		}
		clk.Sleep(20 * time.Millisecond) // let the last invocation finish
		if n, replays := h.st.creates("/a"); n != 121 || replays != 0 {
			t.Errorf("%d creates acted and %d copies replayed, want 121 and 0", n, replays)
		}
		if n := records(c); n > 2 {
			t.Errorf("the client keeps %d call records, want at most 2", n)
		}
	})
}

// records counts the call records c keeps once no racer is out: the free
// ones and the one whose reply the caller holds.
func records(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.freeCalls)
	if c.held != nil {
		n++
	}
	return n
}
