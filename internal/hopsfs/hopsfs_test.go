package hopsfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

func newCluster(t *testing.T, clk *clock.Sim, nns int, withCache bool) (*Cluster, *ndb.DB) {
	t.Helper()
	dbCfg := ndb.DefaultConfig()
	dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 0, 0, 0
	dbCfg.LockWaitTimeout = 150 * time.Millisecond
	st := ndb.New(clk, dbCfg)

	var coord coordinator.Coordinator
	coCfg := coordinator.DefaultConfig()
	coCfg.HopLatency = 0
	coCfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(st, id) }
	coord = coordinator.NewZK(clk, coCfg)

	cfg := DefaultConfig()
	cfg.NameNodes = nns
	cfg.RPCOneWay = 0
	cfg.WithCache = withCache
	cfg.Engine.OpCPUCost = 0
	cfg.Engine.SubtreeCPUPerINode = 0
	return New(clk, st, coord, cfg), st
}

func hok(t *testing.T, c *Client, op namespace.OpType, path, dest string) *namespace.Response {
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

func TestStatelessLifecycle(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, st := newCluster(t, clk, 4, false)
		c := cl.NewClient("c1")
		hok(t, c, namespace.OpMkdirs, "/h/d", "")
		hok(t, c, namespace.OpCreate, "/h/d/f", "")
		hok(t, c, namespace.OpRead, "/h/d/f", "")
		ls := hok(t, c, namespace.OpLs, "/h/d", "")
		if len(ls.Entries) != 1 {
			t.Fatalf("ls = %+v", ls.Entries)
		}
		hok(t, c, namespace.OpMv, "/h/d/f", "/h/d/g")
		hok(t, c, namespace.OpDelete, "/h", "")
		if st.INodeCount() != 1 {
			t.Fatalf("inodes = %d", st.INodeCount())
		}
		// Stateless NameNodes never cache.
		for _, nn := range cl.nns {
			if nn.Engine().Cache() != nil {
				t.Fatalf("stateless NameNode %s has a metadata cache", nn.id)
			}
		}
	})
}

func TestStatelessRoundRobinSpreadsLoad(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, _ := newCluster(t, clk, 4, false)
		c := cl.NewClient("c1")
		hok(t, c, namespace.OpMkdirs, "/rr", "")
		for i := 0; i < 20; i++ {
			hok(t, c, namespace.OpStat, "/rr", "")
		}
		// Each operation re-reads the store (no cache): every stat reaches
		// the NDB layer.
		served := map[string]bool{}
		for i := 0; i < 20; i++ {
			r := hok(t, c, namespace.OpStat, "/rr", "")
			served[r.ServedBy] = true
		}
		if len(served) != 4 {
			t.Fatalf("round robin used %d of 4 NameNodes", len(served))
		}
	})
}

func TestCachedVariantHitsAndCoherence(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, _ := newCluster(t, clk, 4, true)
		w := cl.NewClient("w")
		r := cl.NewClient("r")
		hok(t, w, namespace.OpMkdirs, "/cc", "")
		hok(t, w, namespace.OpCreate, "/cc/f", "")
		hok(t, r, namespace.OpStat, "/cc/f", "")
		second := hok(t, r, namespace.OpStat, "/cc/f", "")
		if !second.CacheHit {
			t.Fatal("HopsFS+Cache did not cache")
		}
		// Consistent-hash routing: same path always served by one NameNode.
		if first := hok(t, r, namespace.OpStat, "/cc/f", ""); first.ServedBy != second.ServedBy {
			t.Fatal("cache-variant routing not sticky")
		}
		// Coherence: delete via w, read via r must miss.
		hok(t, w, namespace.OpDelete, "/cc/f", "")
		resp, _ := r.Do(namespace.OpStat, "/cc/f", "")
		if !errors.Is(resp.Error(), namespace.ErrNotFound) {
			t.Fatalf("stale read after delete: %v", resp.Error())
		}
	})
}

func TestCachedVariantHotDirectoryOneOwner(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// All files in one directory hash to one NameNode — the hot-directory
		// bottleneck the paper attributes to HopsFS+Cache (§5.3.1).
		cl, _ := newCluster(t, clk, 8, true)
		c := cl.NewClient("c")
		hok(t, c, namespace.OpMkdirs, "/hot", "")
		owners := map[string]bool{}
		for i := 0; i < 12; i++ {
			r := hok(t, c, namespace.OpCreate, fmt.Sprintf("/hot/f%d", i), "")
			owners[r.ServedBy] = true
		}
		if len(owners) != 1 {
			t.Fatalf("hot directory spread across %d NameNodes", len(owners))
		}
	})
}

func TestRPCHandlerLimitBoundsConcurrency(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		dbCfg := ndb.DefaultConfig()
		dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 0, 0, 0
		st := ndb.New(clk, dbCfg)
		cfg := DefaultConfig()
		cfg.NameNodes = 1
		cfg.RPCHandlers = 2
		cfg.RPCOneWay = 0
		cfg.VCPUPerNameNode = 64 // CPU is not the limiter here
		cfg.Engine.OpCPUCost = 10 * time.Millisecond
		cl := New(clk, st, nil, cfg)
		c := cl.NewClient("c1")

		start := clk.Now()
		wg := clock.NewGroup(clk)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				c.Do(namespace.OpStat, "/", "")
			})
		}
		wg.Wait()
		// 8 ops × 10ms CPU across 2 handlers: 40ms virtual, exactly.
		if d := clk.Since(start); d != 40*time.Millisecond {
			t.Fatalf("8 ops finished in %v, want 40ms; handler limit not enforced", d)
		}
	})
}

func TestLeaderElected(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, _ := newCluster(t, clk, 3, false)
		if cl.Leader() == "" {
			t.Fatal("no leader elected")
		}
		if cl.NameNodes() != 3 || cl.TotalVCPU() != 48 {
			t.Fatalf("cluster shape wrong: %d nns, %d vCPU", cl.NameNodes(), cl.TotalVCPU())
		}
	})
}

func TestConcurrentClientsMixed(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cl, st := newCluster(t, clk, 4, true)
		seed := cl.NewClient("seed")
		hok(t, seed, namespace.OpMkdirs, "/mix", "")
		wg := clock.NewGroup(clk)
		for w := 0; w < 6; w++ {
			wg.Go(func() {
				c := cl.NewClient(fmt.Sprintf("c%d", w))
				for i := 0; i < 10; i++ {
					p := fmt.Sprintf("/mix/w%d-%d", w, i)
					if resp, _ := c.Do(namespace.OpCreate, p, ""); !resp.OK() {
						t.Errorf("create %s: %s", p, resp.Err)
						return
					}
					if resp, _ := c.Do(namespace.OpRead, p, ""); !resp.OK() {
						t.Errorf("read %s: %s", p, resp.Err)
						return
					}
				}
			})
		}
		wg.Wait()
		ls := hok(t, seed, namespace.OpLs, "/mix", "")
		if len(ls.Entries) != 60 {
			t.Fatalf("entries = %d", len(ls.Entries))
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}
