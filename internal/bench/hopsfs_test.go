package bench

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// newHops is HopsFS, or HopsFS+Cache, of nns NameNodes on clk with store,
// coordinator and CPU costs zeroed, behind handlers RPC handlers each. tweak,
// when non-nil, adjusts the config last.
func newHops(t *testing.T, clk *clock.Sim, nns, handlers int, withCache bool, tweak func(*lambdafs.Config)) (*lambdafs.Cluster, *hopsNameNodes) {
	t.Helper()
	cfg := hopsConfig(clk, 16*nns, withCache)
	cfg.Store.RTT, cfg.Store.ReadService, cfg.Store.WriteService = 0, 0, 0
	cfg.Store.LockWaitTimeout = 150 * time.Millisecond
	cfg.CoordinatorHop = 0
	cfg.Engine.OpCPUCost = 0
	cfg.Engine.SubtreeCPUPerINode = 0
	if tweak != nil {
		tweak(&cfg)
	}
	c := mustLambda(cfg)
	t.Cleanup(c.Close)
	return c, newHopsNameNodes(c, handlers, withCache)
}

func hok(t *testing.T, c *hopsFS, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	resp, err := c.Do(op, path, dest)
	if err != nil {
		t.Fatalf("%v %s: %v", op, path, err)
	}
	if !resp.OK() {
		t.Fatalf("%v %s: %s", op, path, resp.Err)
	}
	return resp
}

func TestHopsFSStatelessLifecycle(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, nns := newHops(t, clk, 4, hopsRPCHandlers, false, nil)
		c := &hopsFS{nns: nns, id: "c1"}
		hok(t, c, namespace.OpMkdirs, "/h/d", "")
		hok(t, c, namespace.OpCreate, "/h/d/f", "")
		hok(t, c, namespace.OpRead, "/h/d/f", "")
		if ls := hok(t, c, namespace.OpLs, "/h/d", ""); len(ls.Entries) != 1 {
			t.Fatalf("ls = %+v", ls.Entries)
		}
		hok(t, c, namespace.OpMv, "/h/d/f", "/h/d/g")
		hok(t, c, namespace.OpDelete, "/h", "")
		if n := cl.Store().INodeCount(); n != 1 {
			t.Fatalf("inodes = %d", n)
		}
		for _, nn := range nns.nns {
			if nn.eng.Cache() != nil {
				t.Fatalf("stateless NameNode %s has a metadata cache", nn.eng.ID())
			}
		}
		if got := cl.Platform().ActiveInstances(); got != 4 {
			t.Fatalf("instances = %d, want the fixed 4", got)
		}
	})
}

func TestHopsFSRoundRobinUsesEveryNameNode(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, nns := newHops(t, clk, 4, hopsRPCHandlers, false, nil)
		c := &hopsFS{nns: nns, id: "c1"}
		hok(t, c, namespace.OpMkdirs, "/rr", "")
		served := map[string]bool{}
		for range 8 {
			served[hok(t, c, namespace.OpStat, "/rr", "").ServedBy] = true
		}
		if len(served) != 4 {
			t.Fatalf("round robin used %d of 4 NameNodes", len(served))
		}
	})
}

func TestHopsFSCacheHitsRoutesAndStaysCoherent(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, nns := newHops(t, clk, 4, hopsRPCHandlers, true, nil)
		w := &hopsFS{nns: nns, id: "w"}
		r := &hopsFS{nns: nns, id: "r"}
		hok(t, w, namespace.OpMkdirs, "/cc", "")
		hok(t, w, namespace.OpCreate, "/cc/f", "")
		first := hok(t, r, namespace.OpStat, "/cc/f", "")
		second := hok(t, r, namespace.OpStat, "/cc/f", "")
		if !second.CacheHit {
			t.Fatal("HopsFS+Cache did not cache")
		}
		if first.ServedBy != second.ServedBy {
			t.Fatalf("one path served by %s and %s", first.ServedBy, second.ServedBy)
		}
		// Coherence: a delete through w, then a stat through r must miss.
		hok(t, w, namespace.OpDelete, "/cc/f", "")
		resp, err := r.Do(namespace.OpStat, "/cc/f", "")
		if err != nil || !errors.Is(resp.Error(), namespace.ErrNotFound) {
			t.Fatalf("stale stat after delete: %v %v", resp, err)
		}
	})
}

// TestHopsFSCacheHotDirectoryOneOwner: every file of one directory hashes
// to one NameNode, the hot-directory bottleneck the paper attributes to
// HopsFS+Cache (§5.3.1).
func TestHopsFSCacheHotDirectoryOneOwner(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, nns := newHops(t, clk, 8, hopsRPCHandlers, true, nil)
		c := &hopsFS{nns: nns, id: "c"}
		hok(t, c, namespace.OpMkdirs, "/hot", "")
		owners := map[string]bool{}
		for i := range 12 {
			owners[hok(t, c, namespace.OpCreate, fmt.Sprintf("/hot/f%d", i), "").ServedBy] = true
		}
		if len(owners) != 1 {
			t.Fatalf("hot directory spread across %d NameNodes", len(owners))
		}
	})
}

// TestHopsFSHandlersBoundConcurrency: 8 ops of 10 ms CPU on a NameNode with
// 2 RPC handlers and CPU to spare take 4 rounds, plus the two one-way hops.
func TestHopsFSHandlersBoundConcurrency(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, nns := newHops(t, clk, 1, 2, false, func(cfg *lambdafs.Config) {
			cfg.NameNodeVCPU = 64 // CPU is not the limiter here
			cfg.Platform.TotalVCPU = 64
			cfg.Engine.OpCPUCost = 10 * time.Millisecond
		})
		start := clk.Now()
		wg := clock.NewGroup(clk)
		for i := range 8 {
			wg.Go(func() {
				(&hopsFS{nns: nns, id: fmt.Sprintf("c%d", i)}).Do(namespace.OpStat, "/", "")
			})
		}
		wg.Wait()
		if d, want := clk.Since(start), 40*time.Millisecond+2*hopsOneWay; d != want {
			t.Fatalf("8 ops finished in %v, want %v; handler bound not enforced", d, want)
		}
	})
}

func TestHopsFSConcurrentClientsLeaveNoLocks(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, nns := newHops(t, clk, 4, hopsRPCHandlers, true, nil)
		seed := &hopsFS{nns: nns, id: "seed"}
		hok(t, seed, namespace.OpMkdirs, "/mix", "")
		wg := clock.NewGroup(clk)
		for w := range 6 {
			wg.Go(func() {
				c := &hopsFS{nns: nns, id: fmt.Sprintf("c%d", w)}
				for i := range 10 {
					p := fmt.Sprintf("/mix/w%d-%d", w, i)
					for _, op := range []namespace.OpType{namespace.OpCreate, namespace.OpRead} {
						if resp, err := c.Do(op, p, ""); err != nil || !resp.OK() {
							t.Errorf("%v %s: %v %v", op, p, resp, err)
							return
						}
					}
				}
			})
		}
		wg.Wait()
		if ls := hok(t, seed, namespace.OpLs, "/mix", ""); len(ls.Entries) != 60 {
			t.Fatalf("entries = %d", len(ls.Entries))
		}
		if n := cl.Store().HeldLocks(); n != 0 {
			t.Fatalf("locks leaked: %d", n)
		}
	})
}
