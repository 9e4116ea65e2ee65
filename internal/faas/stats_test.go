package faas

import (
	"math"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/telemetry"
)

// TestStatsMatchRegistry: Stats() is a read of the registry. After a run
// that exercises cold starts, scale-out, a kill and idle reclamation, every
// counter field equals the instrument a Gather of the same registry reports.
func TestStatsMatchRegistry(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.ColdStart = 2 * time.Millisecond
		cfg.IdleReclaim = 50 * time.Millisecond
		cfg.TotalVCPU = 64
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 2, RAMGB: 1, ConcurrencyLevel: 1})

		// Parallel invokes against concurrency 1 force scale-out, so several
		// instances cold-start.
		wg := clock.NewGroup(clk)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				_, _ = d.Invoke("x")
			})
		}
		wg.Wait()
		p.KillOneInstance(0)

		// Let the reclaimer scale the rest in at its first scan.
		clk.Sleep(reclaimInterval)
		if n := d.AliveInstances(); n != 0 {
			t.Fatalf("%d instances alive after the reclaimer's first scan", n)
		}

		s := p.Stats()
		if s.ColdStarts < 2 {
			t.Fatalf("test did not exercise scale-out: %d cold starts", s.ColdStarts)
		}
		if s.Reclamations == 0 {
			t.Fatal("test did not exercise idle reclamation")
		}
		if s.Kills != 1 {
			t.Fatalf("kills = %d, want 1", s.Kills)
		}

		got := map[string]float64{}
		for _, m := range reg.Gather() {
			got[m.Name] = m.Value
		}
		for name, want := range map[string]float64{
			"lambdafs_faas_invocations_total":        float64(s.Invocations),
			"lambdafs_faas_cold_starts_total":        float64(s.ColdStarts),
			"lambdafs_faas_cold_start_seconds_total": s.ColdStartTime.Seconds(),
			"lambdafs_faas_reclamations_total":       float64(s.Reclamations),
			"lambdafs_faas_evictions_total":          float64(s.Evictions),
			"lambdafs_faas_kills_total":              float64(s.Kills),
			"lambdafs_faas_rejections_total":         float64(s.Rejections),
		} {
			// 1e-9: the seconds counter is a float sum, Stats rounds it to the ns.
			if math.Abs(got[name]-want) > 1e-9 {
				t.Errorf("%s = %v, Stats says %v", name, got[name], want)
			}
		}
		if want := time.Duration(s.ColdStarts) * cfg.ColdStart; s.ColdStartTime != want {
			t.Errorf("ColdStartTime = %v, want %d cold starts x %v = %v", s.ColdStartTime, s.ColdStarts, cfg.ColdStart, want)
		}
	})
}

// TestEvictionsMatchRegistry drives the evict-for-space path (thrashing) on
// a platform given no registry: it counts in a private one.
func TestEvictionsMatchRegistry(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.TotalVCPU = 8
		cfg.MaxUtilization = 1
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		// Two concurrent blocking invokes scale d0 out to two instances,
		// filling the pool; once released, both go idle above the floor of 1.
		block := clock.NewEvent(clk)
		d0 := p.Register("idle", tr.factory(block, 0), DeploymentOptions{VCPU: 4, RAMGB: 1, ConcurrencyLevel: 1, MinInstances: 1})
		wg := clock.NewGroup(clk)
		for i := 0; i < 2; i++ {
			wg.Go(func() {
				_, _ = d0.Invoke("warm")
			})
		}
		clk.Sleep(time.Millisecond) // both invocations are parked in their apps
		block.Set()
		wg.Wait()
		if d0.AliveInstances() != 2 {
			t.Fatalf("scale-out did not happen: %d instances", d0.AliveInstances())
		}

		// A new deployment demanding room must evict an idle d0 instance.
		d1 := p.Register("hot", tr.factory(nil, 0), DeploymentOptions{VCPU: 4, RAMGB: 1, ConcurrencyLevel: 1})
		if _, err := d1.Invoke("x"); err != nil {
			t.Fatal(err)
		}

		if s := p.Stats(); s.Evictions != 1 || s.Invocations != 3 || s.ColdStarts != 3 {
			t.Fatalf("evictions/invocations/cold starts = %d/%d/%d, want 1/3/3", s.Evictions, s.Invocations, s.ColdStarts)
		}
	})
}
