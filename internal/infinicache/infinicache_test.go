package infinicache

import (
	"errors"
	"fmt"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

func newSys(t *testing.T, clk *clock.Sim) (*System, *faas.Platform) {
	t.Helper()
	dbCfg := ndb.DefaultConfig()
	dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 0, 0, 0
	st := ndb.New(clk, dbCfg)
	coCfg := coordinator.DefaultConfig()
	coCfg.HopLatency = 0
	coCfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(st, id) }
	coord := coordinator.NewZK(clk, coCfg)
	fCfg := faas.DefaultConfig()
	fCfg.ColdStart = 0
	fCfg.GatewayLatency = 0
	fCfg.IdleReclaim = 0
	p := faas.New(clk, fCfg)
	t.Cleanup(p.Close)
	cfg := DefaultConfig()
	cfg.Deployments = 4
	cfg.InstancesPerDeployment = 1
	cfg.VCPU = 2
	cfg.RAMGB = 2
	cfg.Engine.OpCPUCost = 0
	cfg.Engine.SubtreeCPUPerINode = 0
	return New(clk, st, coord, p, cfg), p
}

func TestFixedFleetServesOps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s, p := newSys(t, clk)
		c := s.NewClient("c1")
		if r, err := c.Do(namespace.OpMkdirs, "/ic/dir", ""); err != nil || !r.OK() {
			t.Fatalf("mkdirs: %v %v", r, err)
		}
		if r, err := c.Do(namespace.OpCreate, "/ic/dir/f", ""); err != nil || !r.OK() {
			t.Fatalf("create: %v %v", r, err)
		}
		r, err := c.Do(namespace.OpRead, "/ic/dir/f", "")
		if err != nil || !r.OK() {
			t.Fatalf("read: %v %v", r, err)
		}
		// Second read hits the in-function cache.
		r, err = c.Do(namespace.OpRead, "/ic/dir/f", "")
		if err != nil || !r.CacheHit {
			t.Fatalf("second read hit=%v err=%v", r.CacheHit, err)
		}
		// Fleet is exactly the fixed size: 4 deployments × 1 instance.
		if got := p.ActiveInstances(); got != 4 {
			t.Fatalf("instances = %d, want fixed 4", got)
		}
		if r, _ := c.Do(namespace.OpStat, "/missing", ""); !errors.Is(r.Error(), namespace.ErrNotFound) {
			t.Fatalf("missing stat: %v", r.Error())
		}
	})
}

func TestNoScaleOutBeyondFixedSize(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s, p := newSys(t, clk)
		workers := clock.NewGroup(clk)
		for w := 0; w < 8; w++ {
			workers.Go(func() {
				c := s.NewClient(fmt.Sprintf("c%d", w))
				for i := 0; i < 20; i++ {
					c.Do(namespace.OpMkdirs, fmt.Sprintf("/w%d-%d", w, i), "")
				}
			})
		}
		workers.Wait()
		if got := p.ActiveInstances(); got > 4 {
			t.Fatalf("fixed deployment scaled out to %d instances", got)
		}
	})
}

func TestEveryOpIsAnInvocation(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s, p := newSys(t, clk)
		c := s.NewClient("c1")
		before := p.Stats().Invocations
		const n = 10
		for i := 0; i < n; i++ {
			if r, err := c.Do(namespace.OpMkdirs, fmt.Sprintf("/inv%d", i), ""); err != nil || !r.OK() {
				t.Fatalf("op %d: %v %v", i, r, err)
			}
		}
		if got := p.Stats().Invocations - before; got != n {
			t.Fatalf("invocations = %d, want %d (no TCP fast path exists)", got, n)
		}
	})
}
