package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
	"lambdafs/internal/simtest"
)

type testCluster struct {
	clk   *clock.Sim
	st    *ndb.DB
	coord *coordinator.ZK
	p     *faas.Platform
	sys   *System
	vm    *rpc.VM
}

func newCluster(t *testing.T, clk *clock.Sim, deployments int) *testCluster {
	t.Helper()
	return newClusterOn(t, clk, deployments, 0)
}

func newClusterOn(t *testing.T, clk *clock.Sim, deployments int, coldStart time.Duration) *testCluster {
	t.Helper()
	dbCfg := ndb.DefaultConfig()
	dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 0, 0, 0
	dbCfg.LockWaitTimeout = 150 * time.Millisecond
	st := ndb.New(clk, dbCfg)

	coCfg := coordinator.DefaultConfig()
	coCfg.HopLatency = 0
	coCfg.OnCrash = func(id string) { CleanupCrashedNameNode(st, id) }
	coord := coordinator.NewZK(clk, coCfg)

	fCfg := faas.DefaultConfig()
	fCfg.ColdStart = coldStart
	fCfg.GatewayLatency = 0
	fCfg.IdleReclaim = 0
	p := faas.New(clk, fCfg)
	t.Cleanup(p.Close)

	sysCfg := DefaultSystemConfig()
	sysCfg.Deployments = deployments
	sysCfg.NameNodeVCPU = 2
	sysCfg.NameNodeRAMGB = 4
	sysCfg.Engine.OpCPUCost = 0
	sysCfg.Engine.SubtreeCPUPerINode = 0
	sysCfg.OffloadLatency = 0
	sys := NewSystem(clk, st, coord, p, sysCfg)

	rCfg := rpc.DefaultConfig()
	rCfg.TCPOneWay = 0
	rCfg.HTTPReplaceProb = 0
	vm := rpc.NewVM(clk, rCfg)
	return &testCluster{clk: clk, st: st, coord: coord, p: p, sys: sys, vm: vm}
}

func (tc *testCluster) client(id string) *rpc.Client {
	return tc.vm.NewClient(id, tc.sys.Ring(), tc.sys)
}

func cdo(t *testing.T, c *rpc.Client, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	resp, err := c.Do(op, path, dest)
	if err != nil {
		t.Fatalf("%v %s: transport error %v", op, path, err)
	}
	return resp
}

func cok(t *testing.T, c *rpc.Client, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	resp := cdo(t, c, op, path, dest)
	if !resp.OK() {
		t.Fatalf("%v %s: %s", op, path, resp.Err)
	}
	return resp
}

func TestEndToEndLifecycle(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 4)
		c := tc.client("c1")
		cok(t, c, namespace.OpMkdirs, "/app/logs", "")
		cok(t, c, namespace.OpCreate, "/app/logs/1.log", "")
		cok(t, c, namespace.OpCreate, "/app/logs/2.log", "")
		ls := cok(t, c, namespace.OpLs, "/app/logs", "")
		if len(ls.Entries) != 2 {
			t.Fatalf("ls = %+v", ls.Entries)
		}
		cok(t, c, namespace.OpMv, "/app/logs/1.log", "/app/logs/old.log")
		cok(t, c, namespace.OpRead, "/app/logs/old.log", "")
		cok(t, c, namespace.OpDelete, "/app", "")
		resp := cdo(t, c, namespace.OpStat, "/app/logs/2.log", "")
		if !errors.Is(resp.Error(), namespace.ErrNotFound) {
			t.Fatalf("stat after subtree delete: %v", resp.Error())
		}
	})
}

// TestCrossDeploymentCoherenceViaClients: through rpc routing on 8
// deployments, what one client writes the other sees at once — in the
// stat of the path and in the (cached) listing of its directory.
func TestCrossDeploymentCoherenceViaClients(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 8)
		w := tc.client("writer")
		r := tc.client("reader")
		cok(t, w, namespace.OpMkdirs, "/shared", "")
		listed := func(when string, want ...string) {
			t.Helper()
			ls := cok(t, r, namespace.OpLs, "/shared", "")
			var got []string
			for _, e := range ls.Entries {
				got = append(got, e.Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ls /shared %s = %v (cache hit %v), want %v", when, got, ls.CacheHit, want)
			}
		}
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("f%d", i%5)
			p := "/shared/" + name
			cok(t, w, namespace.OpCreate, p, "")
			if resp := cok(t, r, namespace.OpStat, p, ""); resp.Stat == nil {
				t.Fatal("stat lost")
			}
			listed("after create", name)
			if ls := cok(t, r, namespace.OpLs, "/shared", ""); !ls.CacheHit {
				t.Fatal("the reader's listing is not cached: the deletes below prove nothing")
			}
			cok(t, w, namespace.OpDelete, p, "")
			resp := cdo(t, r, namespace.OpStat, p, "")
			if !errors.Is(resp.Error(), namespace.ErrNotFound) {
				t.Fatalf("stale read after delete (i=%d): %v", i, resp.Error())
			}
			listed("after delete")
			if ls := cok(t, r, namespace.OpLs, "/shared", ""); !ls.CacheHit {
				t.Fatal("the reader's empty listing is not cached: the creates above prove nothing")
			}
		}
	})
}

func TestCacheHitsAcrossClients(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 2)
		c1 := tc.client("c1")
		c2 := tc.client("c2")
		cok(t, c1, namespace.OpMkdirs, "/hot", "")
		cok(t, c1, namespace.OpCreate, "/hot/f", "")
		cok(t, c1, namespace.OpRead, "/hot/f", "")
		// Same deployment serves c2 over the shared connection: warm cache.
		resp := cok(t, c2, namespace.OpRead, "/hot/f", "")
		if !resp.CacheHit {
			t.Fatal("second client's read missed the shared cache")
		}
		hits, _ := tc.sys.CacheStats()
		if hits == 0 {
			t.Fatal("no cache hits recorded system-wide")
		}
	})
}

func TestFaultToleranceKillDuringWorkload(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 4)
		c := tc.client("c1")
		cok(t, c, namespace.OpMkdirs, "/ft", "")
		for i := 0; i < 40; i++ {
			p := fmt.Sprintf("/ft/f%d", i)
			cok(t, c, namespace.OpCreate, p, "")
			if i%10 == 5 {
				tc.p.KillOneInstance(i % 4)
			}
			if resp := cok(t, c, namespace.OpStat, p, ""); resp.Stat == nil {
				t.Fatal("stat lost after kill")
			}
		}
		// All files survive.
		ls := cok(t, c, namespace.OpLs, "/ft", "")
		if len(ls.Entries) != 40 {
			t.Fatalf("entries = %d, want 40", len(ls.Entries))
		}
		if tc.st.HeldLocks() != 0 {
			t.Fatalf("locks leaked after kills: %d", tc.st.HeldLocks())
		}
	})
}

func TestManyClientsConcurrentMixed(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 8)
		seed := tc.client("seed")
		cok(t, seed, namespace.OpMkdirs, "/mix", "")
		const nClients = 8
		wg := clock.NewGroup(clk)
		for w := 0; w < nClients; w++ {
			wg.Go(func() {
				c := tc.client(fmt.Sprintf("c%d", w))
				dir := fmt.Sprintf("/mix/d%d", w)
				if r, err := c.Do(namespace.OpMkdirs, dir, ""); err != nil || !r.OK() {
					t.Errorf("mkdirs: %v %v", r, err)
					return
				}
				for i := 0; i < 15; i++ {
					p := fmt.Sprintf("%s/f%d", dir, i)
					if r, err := c.Do(namespace.OpCreate, p, ""); err != nil || !r.OK() {
						t.Errorf("create %s: %v %v", p, r, err)
						return
					}
					if r, err := c.Do(namespace.OpRead, p, ""); err != nil || !r.OK() {
						t.Errorf("read %s: %v %v", p, r, err)
						return
					}
				}
				if r, err := c.Do(namespace.OpLs, dir, ""); err != nil || !r.OK() || len(r.Entries) != 15 {
					t.Errorf("ls %s: %v %v", dir, r, err)
				}
			})
		}
		wg.Wait()
		ls := cok(t, seed, namespace.OpLs, "/mix", "")
		if len(ls.Entries) != nClients {
			t.Fatalf("dirs = %d", len(ls.Entries))
		}
	})
}

func TestSubtreeMvViaClient(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 4)
		c := tc.client("c1")
		cok(t, c, namespace.OpMkdirs, "/big/sub", "")
		for i := 0; i < 30; i++ {
			cok(t, c, namespace.OpCreate, fmt.Sprintf("/big/sub/f%d", i), "")
		}
		cok(t, c, namespace.OpMv, "/big", "/bigger")
		ls := cok(t, c, namespace.OpLs, "/bigger/sub", "")
		if len(ls.Entries) != 30 {
			t.Fatalf("entries after mv = %d", len(ls.Entries))
		}
		resp := cdo(t, c, namespace.OpStat, "/big", "")
		if !errors.Is(resp.Error(), namespace.ErrNotFound) {
			t.Fatal("source survived subtree mv")
		}
	})
}

func TestAutoScaleOutUnderClientLoad(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 1)
		// Force HTTP (scaling signal) with concurrency 1 instances.
		var clients []*rpc.Client
		for i := 0; i < 6; i++ {
			clients = append(clients, tc.client(fmt.Sprintf("c%d", i)))
		}
		wg := clock.NewGroup(clk)
		for i, c := range clients {
			wg.Go(func() {
				for j := 0; j < 10; j++ {
					c.Do(namespace.OpMkdirs, fmt.Sprintf("/scale%d-%d", i, j), "")
				}
			})
		}
		wg.Wait()
		if tc.sys.Platform().ActiveInstances() < 1 {
			t.Fatal("no instances active")
		}
		// The deployment scaled beyond one instance at some point or at
		// least served everything; assert all dirs exist.
		checker := tc.client("check")
		for i := 0; i < 6; i++ {
			for j := 0; j < 10; j++ {
				cok(t, checker, namespace.OpStat, fmt.Sprintf("/scale%d-%d", i, j), "")
			}
		}
	})
}

// TestMembershipFollowsTermination: a NameNode leaves the coordinator's
// membership through its one Shutdown — also when it is killed while still
// cold-starting, before there was an app to shut down — with no goroutine
// per instance watching for it.
func TestMembershipFollowsTermination(t *testing.T) {
	sim := simtest.New(t)
	tc := newClusterOn(t, sim, 1, 10*time.Millisecond)
	clock.Run(sim, func() {
		c := tc.client("c1")
		g := clock.NewGroup(sim)
		g.Go(func() {
			if resp, err := c.Do(namespace.OpMkdirs, "/a", ""); err != nil || !resp.OK() {
				t.Errorf("mkdirs across the killed cold start: %v %v", resp, err)
			}
		})
		sim.Sleep(5 * time.Millisecond)
		if !tc.p.KillOneInstance(0) {
			t.Error("nothing to kill 5ms into a 10ms cold start")
		}
		g.Wait()
		if at := sim.Since(clock.Epoch); at < 20*time.Millisecond {
			t.Errorf("request served at %v: the killed cold start was not replaced by a second one", at)
		}
		if m := tc.coord.MemberCount(); m != 1 {
			t.Errorf("%d members after a kill mid-cold-start, want the replacement only", m)
		}
		if !tc.p.KillOneInstance(0) {
			t.Error("no instance to kill")
		}
		if m := tc.coord.MemberCount(); m != 0 {
			t.Errorf("%d members with every instance dead, want none", m)
		}
	})
}

func TestOffloadBatchUsesHelpers(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tc := newCluster(t, clk, 3)
		c := tc.client("c1")
		// Warm at least one instance in each deployment.
		for i := 0; i < 30; i++ {
			cok(t, c, namespace.OpMkdirs, fmt.Sprintf("/warm%d", i), "")
		}
		cok(t, c, namespace.OpMkdirs, "/off", "")
		for i := 0; i < 40; i++ {
			cok(t, c, namespace.OpCreate, fmt.Sprintf("/off/f%d", i), "")
		}
		// Small batches force multiple sub-operations; offloading should not
		// break correctness.
		if tc.p.ActiveInstances() == 0 {
			t.Fatal("no live NameNodes")
		}
		cok(t, c, namespace.OpDelete, "/off", "")
		resp := cdo(t, c, namespace.OpStat, "/off", "")
		if !errors.Is(resp.Error(), namespace.ErrNotFound) {
			t.Fatal("offloaded subtree delete incomplete")
		}
	})
}
