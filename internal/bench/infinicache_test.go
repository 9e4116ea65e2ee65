package bench

import (
	"errors"
	"fmt"
	"testing"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// newInfiniCache is a 4-deployment InfiniCache on clk with every latency
// and CPU cost zeroed.
func newInfiniCache(t *testing.T, clk *clock.Sim) *lambdafs.Cluster {
	t.Helper()
	cfg := lambdafs.DefaultConfig()
	cfg.Clock = clk
	cfg.Store.RTT, cfg.Store.ReadService, cfg.Store.WriteService = 0, 0, 0
	cfg.CoordinatorHop = 0
	cfg.Platform.ColdStart = 0
	cfg.Platform.GatewayLatency = 0
	cfg.Deployments = 4
	cfg.NameNodeVCPU = 2
	cfg.NameNodeRAMGB = 2
	cfg.Engine.OpCPUCost = 0
	cfg.Engine.SubtreeCPUPerINode = 0
	c := infiniCache(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestInfiniCacheFixedFleetServesOps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := newInfiniCache(t, clk)
		p := s.Platform()
		c := &httpFS{sys: s.System(), id: "c1"}
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

func TestInfiniCacheNoScaleOutBeyondFixedSize(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := newInfiniCache(t, clk)
		p := s.Platform()
		workers := clock.NewGroup(clk)
		for w := 0; w < 8; w++ {
			workers.Go(func() {
				c := &httpFS{sys: s.System(), id: fmt.Sprintf("c%d", w)}
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

func TestInfiniCacheEveryOpIsAnInvocation(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := newInfiniCache(t, clk)
		p := s.Platform()
		c := &httpFS{sys: s.System(), id: "c1"}
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
