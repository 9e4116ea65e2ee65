package bench

import (
	"fmt"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/trace"
	"lambdafs/internal/workload"
)

// tracedDeepStatReport runs the deep_stat hot path (stats of files under a
// 10-deep directory chain) with tracing on and returns its critical-path
// report.
func tracedDeepStatReport(t *testing.T) *trace.CritReport {
	t.Helper()
	clk := clock.NewSim()
	defer clk.Close()
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
			mustOK(resp, namespace.OpStat, p)
		}
	})
	return trace.CriticalPath(tr.Traces())
}

// TestDeepStatCriticalPathShift pins the headline behavior of the
// critical-path report on deep_stat. The store round trip and the
// per-shard service phase cost identical virtual time (300µs each), so
// pure latency attribution cannot rank them; the resource ledgers can.
// Batched resolution makes the wire exchange a single hop and
// materializes the chain's rows in the per-shard service phase, so
// ndb.service — not ndb.rtt — holds the top slot.
func TestDeepStatCriticalPathShift(t *testing.T) {
	op := tracedDeepStatReport(t).Op("stat")
	if op == nil {
		t.Fatal("no stat traces in report")
	}
	for cohort, co := range map[string]*trace.CritCohort{"p50": op.P50, "p99": op.P99} {
		ranked := co.Ranked()
		if len(ranked) == 0 {
			t.Fatalf("%s cohort has no contributors", cohort)
		}
		if got := ranked[0]; got.Kind != trace.KindStoreService {
			t.Errorf("%s top contributor = %s, want %s (rows materialize in the per-shard service phase)",
				cohort, got.Kind, trace.KindStoreService)
		}
	}
	if rtt, svc := op.P50.Kind(trace.KindStoreRTT).PathTotal, op.P50.Kind(trace.KindStoreService).PathTotal; rtt != svc {
		t.Errorf("rtt path time %v != service path time %v: the ranking must be a ledger effect, not a latency one", rtt, svc)
	}
}
