package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
	"lambdafs/internal/trace"
	"lambdafs/internal/workload"
)

// RunTrace runs the observability experiment: a traced λFS deployment
// through three phases — a warm mixed workload, an instance-kill storm
// (cold starts, retries, anti-thrashing), and an idle window (reclamation)
// — then renders the per-op-type critical-path decomposition (every op,
// then the top contributors to its p50 and p99 cohorts with their resource
// ledgers) and the structured event log. With Options.ArtifactDir set, the
// raw traces and events are dumped as JSONL for external tooling.
func RunTrace(opts Options) []*Table {
	_, _, tables := runTrace(opts)
	return tables
}

// runTrace is RunTrace, also returning the decomposition its tables render
// and the spans still open once the run is over.
func runTrace(opts Options) (*trace.Breakdown, int64, []*Table) {
	clk := clock.NewSim()
	defer clk.Close()

	cfg := lambdaConfig(clk, opts.Seed)
	cfg.EnableTracing = true

	dirs, files := workload.GenerateNamespace(microTreeShape(opts.Scale))
	var c *lambdafs.Cluster
	clock.Run(clk, func() {
		c = mustLambda(cfg)
		workload.PreloadNDB(c.Store(), dirs, files)
	})
	defer c.Close()
	tr := c.Tracer()

	clients, per := scaled(opts.Scale, 32, 16, 8), scaled(opts.Scale, 192, 96, 64)
	// Write-heavier than Spotify so create/mv decompositions have enough
	// samples to report.
	mix := workload.Mix{
		{Op: namespace.OpCreate, Weight: 12},
		{Op: namespace.OpMv, Weight: 6},
		{Op: namespace.OpDelete, Weight: 2},
		{Op: namespace.OpRead, Weight: 35},
		{Op: namespace.OpStat, Weight: 35},
		{Op: namespace.OpLs, Weight: 10},
	}
	tree := workload.NewTree(dirs, files)
	client := lambdaClients(c, 2)
	fss := make([]workload.FS, clients)
	for i := range fss {
		fss[i] = client(i)
	}
	cached := func(i int) workload.FS { return fss[i] }

	// Phase 1 — warm: connections established, instances provisioned,
	// latency windows filled.
	clock.Run(clk, func() {
		workload.RunClosedLoop(clk, tree, mix, clients, per, opts.Seed, cached)
	})

	// Phase 2 — kill storm: every instance of four deployments dies, so
	// the next request routed to one of them finds no connection to fail
	// over to and goes through HTTP into a fresh cold start; the latency
	// spike pushes the client into anti-thrashing mode.
	clock.Run(clk, func() {
		for dep := 0; dep < 4; dep++ {
			for c.Platform().KillOneInstance(dep % cfg.Deployments) {
			}
		}
		workload.RunClosedLoop(clk, tree, mix, clients, per/2, opts.Seed+1, cached)
		// Outlive the anti-thrashing hold, then issue a few more ops so
		// the (lazy) exit events are observed and recorded.
		clk.Sleep(rpc.AntiThrashHold + time.Second)
		workload.RunClosedLoop(clk, tree, mix, clients, 8, opts.Seed+2, cached)
	})

	// Phase 3 — idle: instances pass the idle-reclaim threshold and the
	// platform scales in.
	clock.Run(clk, func() {
		clk.Sleep(45 * time.Second)
	})

	bd := trace.Aggregate(tr.Traces())
	tables := []*Table{BreakdownTable(bd), CriticalPathTable(bd), eventTable(tr)}
	for _, t := range tables {
		t.Fprint(opts.out())
	}
	if opts.ArtifactDir != "" {
		if err := dumpTraceJSONL(tr, opts.ArtifactDir); err != nil {
			fmt.Fprintf(opts.out(), "trace dump failed: %v\n", err)
		}
	}
	return bd, tr.OpenSpans(), tables
}

// BreakdownTable renders a latency decomposition with a stable column
// order: fixed end-to-end columns first, then a (mean µs, % of latency)
// pair per span kind in trace.KindOrder. The order is part of the CSV
// contract (see TestBreakdownTableGolden).
func BreakdownTable(b *trace.Breakdown) *Table {
	kinds := b.KindsPresent()
	cols := []string{"op", "count", "mean_us", "p50_us", "p99_us", "attributed_pct"}
	for _, k := range kinds {
		cols = append(cols, string(k)+"_mean_us", string(k)+"_pct")
	}
	t := &Table{
		ID:      "trace-breakdown",
		Title:   "Per-op latency decomposition by span kind (critical path)",
		Columns: cols,
	}
	for _, op := range b.OpNames() {
		o := b.Op(op)
		row := []string{
			op,
			fmt.Sprintf("%d", o.Count),
			fmt.Sprintf("%d", o.E2E.Mean().Microseconds()),
			fmt.Sprintf("%d", o.E2E.Quantile(0.5).Microseconds()),
			fmt.Sprintf("%d", o.E2E.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%.1f", 100*o.AttributedFraction()),
		}
		for _, k := range kinds {
			ks := o.Kind(k)
			if ks == nil {
				row = append(row, "0", "0.0")
				continue
			}
			mean := time.Duration(int64(ks.Total) / int64(o.Count))
			row = append(row,
				fmt.Sprintf("%d", mean.Microseconds()),
				fmt.Sprintf("%.1f", 100*o.MeanShare(k)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// eventTable summarizes the structured event stream.
func eventTable(tr *trace.Tracer) *Table {
	t := &Table{
		ID:      "trace-events",
		Title:   "Structured platform/client events (virtual time)",
		Columns: []string{"event", "count", "first", "last"},
	}
	for _, typ := range []trace.EventType{
		trace.EventColdStart, trace.EventReclaim, trace.EventEvict,
		trace.EventKill, trace.EventHTTPReplace, trace.EventRetry,
		trace.EventHedgedRetry, trace.EventAntiThrashEnter,
		trace.EventAntiThrashExit, trace.EventCoherenceINV,
		trace.EventSubtreeOffload,
	} {
		evs := tr.EventsOf(typ)
		if len(evs) == 0 {
			continue
		}
		first := evs[0].Time.Sub(clock.Epoch)
		last := evs[len(evs)-1].Time.Sub(clock.Epoch)
		t.Rows = append(t.Rows, []string{
			string(typ), fmt.Sprintf("%d", len(evs)),
			fmt.Sprintf("t+%s", fmtDur(first)), fmt.Sprintf("t+%s", fmtDur(last)),
		})
	}
	return t
}

// dumpTraceJSONL writes the raw traces and events to dir/trace.jsonl.
func dumpTraceJSONL(tr *trace.Tracer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteJSONL(f)
}
