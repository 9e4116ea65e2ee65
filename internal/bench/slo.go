package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lambdafs/internal/chaos"
	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/workload"
)

// RunSLO runs the alerting experiment in two phases.
//
// Both phases evaluate the one rule pack, slo.Rules.
//
// Phase A is the chaos alert-coverage battery: every episode family's
// scripted fault scenario runs under the pack across a seed sweep, and each row reports which alerts fired against the
// family's must-fire/must-not-fire contract plus the replayable
// transition digest. A non-zero violation count means an alert either
// stayed silent through the fault it exists for, or fired on a fault
// it should ignore.
//
// Phase B runs the pack against a healthy live λFS deployment under a
// warm-then-burst workload on the simulation clock: the SLO engine
// subscribes to the telemetry scraper and evaluates every rule once per
// virtual second. The table shows the final state of each rule and how
// many firing/resolved transitions the run produced — none, as the pack's
// bounds are set for a healthy deployment to stay silent.
//
// With Options.ArtifactDir set, the phases leave artifacts: the coverage
// results as slo-coverage.json, the live run's alert log as
// slo-alerts.jsonl, and the live registry/scrape series via the usual
// telemetry artifact pair.
func RunSLO(opts Options) []*Table {
	tables := []*Table{runSLOCoverage(opts), runSLOLive(opts)}
	for _, t := range tables {
		t.Fprint(opts.out())
	}
	return tables
}

// runSLOCoverage is phase A: the chaos alert-coverage battery.
func runSLOCoverage(opts Options) *Table {
	seeds := []int64{opts.Seed, opts.Seed + 1, opts.Seed + 2}[:scaled(opts.Scale, 3, 2, 1)]

	t := &Table{
		ID:      "slo-coverage",
		Title:   "Chaos alert coverage (must-fire / must-not-fire contracts)",
		Columns: []string{"family", "seed", "must_fire", "fired", "transitions", "violations", "digest"},
		Notes: []string{
			"replay any row with go test ./internal/chaos/ -run TestAlertCoverage (seeds are pinned there) or via this experiment's -seed",
			"every slo.Rules rule appears in each family's contract: silence on a must-not-fire row is an assertion, not a gap",
		},
	}
	var results []*chaos.AlertEpisodeResult
	for _, c := range chaos.AlertContracts() {
		for _, seed := range seeds {
			res := chaos.RunAlertEpisode(chaos.AlertEpisodeConfig{Family: c.Family, Seed: seed})
			results = append(results, res)
			t.Rows = append(t.Rows, []string{
				string(res.Family),
				fmt.Sprintf("%d", res.Seed),
				fmt.Sprintf("%v", c.MustFire),
				fmt.Sprintf("%v", res.Fired),
				fmt.Sprintf("%d", len(res.Transitions)),
				fmt.Sprintf("%d", len(res.Violations)),
				res.Digest[:16],
			})
			for _, v := range res.Violations {
				t.Notes = append(t.Notes, "VIOLATION: "+v)
			}
		}
	}
	if opts.ArtifactDir != "" {
		if path, err := writeSLOCoverage(opts.ArtifactDir, results); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("coverage artifact failed: %v", err))
		} else {
			t.Notes = append(t.Notes, "coverage artifact: "+path)
		}
	}
	return t
}

// runSLOLive is phase B: the rule pack over a live deployment,
// every phase driven by one clock-registered goroutine (see runChaosStorm).
func runSLOLive(opts Options) (t *Table) {
	clk := clock.NewSim()
	defer clk.Close()
	clock.Run(clk, func() { t = sloLive(clk, opts) })
	return t
}

func sloLive(clk *clock.Sim, opts Options) *Table {
	reg := telemetry.NewRegistry()
	cfg := lambdaConfig(clk, opts.Seed)
	cfg.Deployments = 4
	cfg.Store.Metrics = reg
	// The pack's WAL-stall absence rule needs durable media under
	// the store — without a WAL, commits advancing while appends sit at
	// zero would read as a stall. The checkpoint tier runs with zeroed
	// latencies so durability does not distort the latency rules.
	ckptCfg := lsm.DefaultConfig()
	ckptCfg.PutLatency, ckptCfg.ProbeLatency = 0, 0
	ckptCfg.FlushPerEntry, ckptCfg.CompactPerEntry = 0, 0
	cfg.Store.Durable = ndb.NewDurable(clk, cfg.Store.DataNodes, ckptCfg)

	eng := slo.New(slo.Config{Registry: reg})
	eng.AddRules(slo.Rules())
	fr := telemetry.NewFlightRecorder(0, 0)
	eng.SetEventSink(fr.RecordEvent)

	dirs, files := workload.GenerateNamespace(microTreeShape(opts.Scale))
	c := mustLambda(cfg)
	workload.PreloadNDB(c.Store(), dirs, files)
	defer c.Close()

	scraper := telemetry.NewScraper(clk, reg, time.Second)
	scraper.OnSnapshot(eng.Observe)
	scraper.OnSnapshot(fr.RecordSnapshot)
	scraper.Start()

	warmClients, burstClients, per := scaled(opts.Scale, 8, 8, 4), scaled(opts.Scale, 48, 32, 16), scaled(opts.Scale, 96, 64, 32)
	mix := workload.Mix{
		{Op: namespace.OpCreate, Weight: 10},
		{Op: namespace.OpMv, Weight: 2},
		{Op: namespace.OpDelete, Weight: 2},
		{Op: namespace.OpRead, Weight: 40},
		{Op: namespace.OpStat, Weight: 36},
		{Op: namespace.OpLs, Weight: 10},
	}
	tree := workload.NewTree(dirs, files)
	client := lambdaClients(c, 2)
	fss := make([]workload.FS, burstClients)
	for i := range fss {
		fss[i] = client(i)
	}
	cached := func(i int) workload.FS { return fss[i] }

	// Warm phase: a light load settles instances and caches.
	warm := workload.RunClosedLoop(clk, tree, mix, warmClients, per, opts.Seed, cached)
	// Burst phase: client count jumps — cold starts and queueing spike,
	// which the latency and saturation rules must ride out.
	burst := workload.RunClosedLoop(clk, tree, mix, burstClients, per, opts.Seed+1, cached)
	// Settle phase: a few quiet virtual seconds so resolved transitions
	// have ticks to land on before the final scrape.
	clk.Sleep(5 * time.Second)
	scraper.ScrapeNow()
	scraper.Stop()

	transByRule := map[string]int{}
	for _, tr := range eng.Transitions() {
		transByRule[tr.Rule]++
	}

	t := &Table{
		ID:      "slo-live",
		Title:   "SLO rule pack over a live λFS deployment (warm → burst → settle)",
		Columns: []string{"rule", "kind", "state", "value", "bound", "transitions"},
		Notes: []string{
			fmt.Sprintf("warm_ops=%d burst_ops=%d", warm.Completed.Load(), burst.Completed.Load()),
		},
	}
	for _, st := range eng.Status() {
		t.Rows = append(t.Rows, []string{
			st.Name, st.Kind, st.State,
			fmt.Sprintf("%.6g", st.Value),
			fmt.Sprintf("%.6g", st.Bound),
			fmt.Sprintf("%d", transByRule[st.Name]),
		})
	}
	if opts.ArtifactDir != "" {
		if path, err := writeSLOAlerts(opts.ArtifactDir, eng); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("alert artifact failed: %v", err))
		} else {
			t.Notes = append(t.Notes, "alert log: "+path)
		}
		if err := writeTelemetryArtifacts(opts.ArtifactDir, "slo-live", reg, scraper); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("telemetry artifacts failed: %v", err))
		}
		if path, err := dumpFlight(opts.ArtifactDir, "slo-live-flight.jsonl", fr); err == nil {
			t.Notes = append(t.Notes, "flight recorder: "+path)
		}
	}
	return t
}

// writeSLOCoverage dumps the phase-A battery results as JSON.
func writeSLOCoverage(dir string, results []*chaos.AlertEpisodeResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "slo-coverage.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// writeSLOAlerts dumps the live engine's transition log as JSONL.
func writeSLOAlerts(dir string, eng *slo.Engine) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "slo-alerts.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := eng.WriteAlertsJSONL(f); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
