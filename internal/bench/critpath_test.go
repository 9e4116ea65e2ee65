package bench

import (
	"fmt"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
	"lambdafs/internal/workload"
)

// tracedDeepStatReport runs the deep_stat hot path (stats of files under a
// 10-deep directory chain) with tracing on and returns its decomposition.
func tracedDeepStatReport(t *testing.T) *trace.Breakdown {
	t.Helper()
	clk := simtest.New(t)
	var c *hotpathCluster
	var tr *trace.Tracer
	var paths []string
	clock.Run(clk, func() {
		c = newHotpathCluster(clk, 2)
		tr = trace.New(clk, trace.Config{})
		dir := ""
		var dirs []string
		for d := 0; d < 10; d++ {
			dir = fmt.Sprintf("%s/h%d", dir, d)
			dirs = append(dirs, dir)
		}
		for f := 0; f < 24; f++ {
			paths = append(paths, fmt.Sprintf("%s/f%02d", dir, f))
		}
		workload.PreloadNDB(c.db, dirs, paths)
	})
	clock.Run(clk, func() {
		for _, p := range paths {
			tc := tr.StartTrace("stat", p, "c0")
			resp := c.writer.Execute(namespace.Request{Op: namespace.OpStat, Path: p, TC: tc})
			tc.Finish(resp.Err)
			if !resp.OK() {
				t.Errorf("stat %s: %s", p, resp.Err)
			}
		}
	})
	return trace.Aggregate(tr.Traces())
}

// TestDeepStatCriticalPathShift pins the tie rule of the critical-path
// ranking on deep_stat. The store round trip and the per-shard service
// phase cost identical virtual time (300µs each), so latency alone cannot
// rank them; the store-hop ledger does. A batched resolution is one
// dependent store round, billed on its round-trip span, so ndb.rtt — not
// ndb.service — holds the top slot.
func TestDeepStatCriticalPathShift(t *testing.T) {
	op := tracedDeepStatReport(t).Op("stat")
	if op == nil {
		t.Fatal("no stat traces in report")
	}
	for cohort, co := range map[string]*trace.Cohort{"p50": op.P50, "p99": op.P99} {
		ranked := co.Ranked()
		if len(ranked) < 2 {
			t.Fatalf("%s cohort has %d contributors, want at least 2", cohort, len(ranked))
		}
		if got := ranked[0]; got.Kind != trace.KindStoreRTT || got.Res.StoreHops == 0 {
			t.Errorf("%s top contributor = %s with %d hops, want %s with the round's hop",
				cohort, got.Kind, got.Res.StoreHops, trace.KindStoreRTT)
		}
		if got := ranked[1]; got.Kind != trace.KindStoreService || got.Res.StoreHops != 0 {
			t.Errorf("%s second contributor = %s with %d hops, want %s with none",
				cohort, got.Kind, got.Res.StoreHops, trace.KindStoreService)
		}
	}
	if rtt, svc := op.P50.Kind(trace.KindStoreRTT).Total, op.P50.Kind(trace.KindStoreService).Total; rtt != svc {
		t.Errorf("rtt path time %v != service path time %v: the ranking must be a ledger effect, not a latency one", rtt, svc)
	}
}
