package rpc

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
)

// A reply Do returns lives in its call record's storage and is valid until
// the client's next Do. A replaced read's losing invocation, still out when
// the caller's next Do starts, keeps its record from reuse, so it answers
// into storage the caller no longer looks at. Here the first call's
// invocation is held at the gateway until the next call has returned, and
// the next call's TCP call is held up past its own invocation, so the reply
// the caller holds is the one its invocation wrote, in the storage of a
// second racer — the slot the loser writes into in its own record. The same
// holds for a directory's ls, whose entries the loser writes into its own
// storage's room, never into the entries the caller holds.
func TestReplacedLoserNeverWritesHeldReply(t *testing.T) {
	for _, op := range []namespace.OpType{namespace.OpRead, namespace.OpLs} {
		simtest.Run(t, func(clk *clock.Sim) {
			var slowTCP atomic.Bool
			cfg := testCfg()
			cfg.OnTCPFault = func(string, int) (bool, time.Duration) {
				if slowTCP.Load() {
					return false, 50 * time.Millisecond
				}
				return false, 0
			}
			gate := &gatedInvoker{gate: clock.NewEvent(clk)}
			_, c := replaceHarness(t, clk, func(inv Invoker) Invoker { gate.inner = inv; return gate }, cfg)
			gate.hold.Store(true) // the next invocation waits for the gate
			first, err := c.Do(op, "/a", "")
			if err != nil || !first.OK() || first.ID != namespace.INodeID(c.seq.Load()) {
				t.Fatalf("first %v: %+v %v, want its own reply", op, first, err)
			}
			slowTCP.Store(true)
			second, err := c.Do(op, "/b", "")
			seq := namespace.INodeID(c.seq.Load())
			if err != nil || second.ID != seq {
				t.Fatalf("second %v: %+v %v, want its own reply (ID %d)", op, second, err, seq)
			}
			held, heldEntries := *second, slices.Clone(second.Entries)
			if op == namespace.OpLs && (len(heldEntries) != lsEntries || heldEntries[0].ID != seq) {
				t.Fatalf("second ls: entries %+v, want %d of ID %d", heldEntries, lsEntries, seq)
			}
			gate.gate.Set()
			// First the loser answers, then the second call's held-up TCP
			// call: every racer of both calls has finished.
			for _, wait := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond} {
				clk.Sleep(wait)
				if !reflect.DeepEqual(*second, held) || !slices.Equal(second.Entries, heldEntries) {
					t.Errorf("%v, %v after the gate: a late reply landed in the held reply: %+v %+v, was %+v %+v",
						op, wait, *second, second.Entries, held, heldEntries)
				}
			}
			if st := c.Stats(); st.TCPRPCs != 2 || st.HTTPRPCs != 3 {
				t.Errorf("%v: stats = %+v, want 2 TCP calls and 3 invocations", op, st)
			}
		})
	}
}

// gatedInvoker holds one invocation, the first after hold is set, until its
// gate is set.
type gatedInvoker struct {
	inner Invoker
	gate  *clock.Event
	hold  atomic.Bool
}

func (g *gatedInvoker) Invoke(dep int, payload any) (any, error) {
	if g.hold.CompareAndSwap(true, false) {
		g.gate.Wait()
	}
	return g.inner.Invoke(dep, payload)
}

// The same holds for a straggler hedge's late loser: the first read's
// primary stalls past the straggler threshold and its hedge answers; the
// primary, released once the next read has returned, writes its reply into
// its own record's storage, never into the reply the caller holds.
func TestStragglerLoserNeverWritesHeldReply(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := faas.New(clk, fastFaasCfg())
		defer p.Close()
		block := clock.NewEvent(clk)
		p.Register("nn", func(inst *faas.Instance) faas.App {
			return &testNN{inst: inst, block: block} // its first read stalls
		}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8})
		cfg := testCfg()
		cfg.TCPOneWay = time.Millisecond
		c := NewVM(clk, cfg).NewClient("c1", partition.NewRing(1, 0), platformInvoker{p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		armHedging(c, time.Millisecond)
		first, err := c.Do(namespace.OpRead, "/a", "")
		if err != nil || first.ID != namespace.INodeID(c.seq.Load()) {
			t.Fatalf("hedged read: %+v %v, want its own reply", first, err)
		}
		second, err := c.Do(namespace.OpStat, "/b", "")
		seq := namespace.INodeID(c.seq.Load())
		if err != nil || second.ID != seq {
			t.Fatalf("next stat: %+v %v, want its own reply (ID %d)", second, err, seq)
		}
		held := *second
		block.Set()
		clk.Sleep(10 * time.Millisecond) // the stalled primary answers
		if !reflect.DeepEqual(*second, held) {
			t.Errorf("the straggler's late reply landed in the held reply: %+v, was %+v", *second, held)
		}
		if st := c.Stats(); st.Hedges != 1 {
			t.Errorf("stats = %+v, want one hedge", st)
		}
	})
}

// A Client serves one caller at a time: a Do that starts while another Do
// of the same client runs panics, naming the client, and the running call
// is unharmed.
func TestOverlappingDoPanics(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.TCPOneWay = time.Millisecond
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		g := clock.NewGroup(clk)
		var resp *namespace.Response
		var err error
		g.Go(func() { resp, err = c.Do(namespace.OpStat, "/a", "") }) // parks on its TCP legs
		var panicked any
		g.Go(func() {
			defer func() { panicked = recover() }()
			c.Do(namespace.OpStat, "/b", "")
		})
		g.Wait()
		msg, _ := panicked.(string)
		if !strings.Contains(msg, "client c1") || !strings.Contains(msg, "one caller at a time") {
			t.Errorf("the overlapping Do: recovered %v, want a panic naming client c1", panicked)
		}
		if err != nil || !resp.OK() {
			t.Errorf("the running Do: %+v %v, want it unharmed", resp, err)
		}
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Errorf("a Do after the overlap: %v", err)
		}
	})
}
