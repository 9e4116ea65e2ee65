package bench

import (
	"fmt"
	"math/rand"
	"time"

	"lambdafs/internal/chaos"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/workload"
)

// RunChaos runs the fault-injection experiment in two phases.
//
// Phase A replays deterministic chaos episodes (the same harness as
// TestChaosRandomized): a multi-engine λFS cluster under a seeded op
// stream with faults armed at the ndb and coordinator boundaries, every
// FS invariant checked after every step. Each row reports one episode's
// fault mix, violation count, and digest; re-running with the same seed
// must reproduce the digest byte-for-byte. With Options.ChaosSeed > 0
// only that episode runs (failure replay: the seed a failing test or
// bench printed).
//
// Phase B runs a full-stack fault storm: the standard λFS deployment
// (faas platform, hybrid RPC fabric, NDB) under the Spotify-style mixed
// workload while an injector kills instances mid-invocation, denies cold
// starts, drops and delays TCP calls, and stalls NDB shards. Ops are
// allowed to fail — the point is that the system keeps serving and the
// store's structural invariants hold at quiescence.
func RunChaos(opts Options) []*Table {
	tables := []*Table{runChaosEpisodes(opts)}
	if opts.ChaosSeed <= 0 {
		tables = append(tables, runChaosStorm(opts))
	}
	for _, t := range tables {
		t.Fprint(opts.out())
	}
	return tables
}

// runChaosEpisodes is phase A: model-checked deterministic episodes.
func runChaosEpisodes(opts Options) *Table {
	episodes := scaled(opts.Scale, 12, 8, 4)
	seeds := make([]int64, 0, episodes)
	if opts.ChaosSeed > 0 {
		seeds = append(seeds, opts.ChaosSeed)
	} else {
		for i := 0; i < episodes; i++ {
			seeds = append(seeds, opts.Seed+int64(i))
		}
	}

	t := &Table{
		ID:      "chaos-episodes",
		Title:   "Deterministic chaos episodes (model-checked invariants)",
		Columns: []string{"seed", "steps", "inodes", "faults_fired", "fault_mix", "violations", "digest"},
		Notes: []string{
			"replay any row with -chaosseed <seed> (bench binary) or go test ./internal/chaos/ -run TestChaosRandomized -chaosseed <seed>",
		},
	}
	for _, seed := range seeds {
		cfg := chaos.EpisodeConfig{Seed: seed}
		cfg.Metrics = telemetry.NewRegistry()
		// The flight recorder rides along on every episode: the episode's
		// tracer feeds its ring and its clock stamps a final snapshot, and
		// on an invariant violation the freshest window is dumped for
		// post-mortem replay.
		fr := telemetry.NewFlightRecorder()
		cfg.Flight = fr
		res := chaos.RunEpisode(cfg)
		if len(res.Violations) > 0 && opts.ArtifactDir != "" {
			if path, err := dumpFlight(opts.ArtifactDir,
				fmt.Sprintf("chaos-flight-%d.jsonl", seed), fr); err == nil {
				t.Notes = append(t.Notes, fmt.Sprintf("seed %d flight recorder: %s", seed, path))
			} else {
				t.Notes = append(t.Notes, fmt.Sprintf("seed %d flight recorder dump failed: %v", seed, err))
			}
		}
		var fired uint64
		mix := ""
		for _, kind := range []chaos.FaultKind{
			chaos.FaultTxAbort, chaos.FaultShardStall, chaos.FaultShardCrash,
			chaos.FaultLeaseExpiry, chaos.FaultLeaderFlap,
		} {
			n := res.FaultsFired[kind]
			fired += n
			if n > 0 {
				if mix != "" {
					mix += " "
				}
				mix += fmt.Sprintf("%s:%d", kind, n)
			}
		}
		if mix == "" {
			mix = "-"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d", len(res.Steps)),
			fmt.Sprintf("%d", res.FinalINodes),
			fmt.Sprintf("%d", fired),
			mix,
			fmt.Sprintf("%d", len(res.Violations)),
			res.Digest[:16],
		})
		for _, v := range res.Violations {
			t.Notes = append(t.Notes, fmt.Sprintf("seed %d VIOLATION: %s", seed, v))
		}
	}
	return t
}

// runChaosStorm is phase B: the full λFS stack under a seeded fault storm.
// One clock-registered goroutine drives every phase, so every goroutine of
// the storm is clock-started and a seed's table is the same on every run
// (TestChaosStormSeedDeterminism holds it to a committed one).
func runChaosStorm(opts Options) (t *Table) {
	clk := clock.NewSim()
	defer clk.Close()
	clock.Run(clk, func() { t = chaosStorm(clk, opts) })
	return t
}

func chaosStorm(clk *clock.Sim, opts Options) *Table {
	inj := chaos.NewInjector()
	cfg := lambdaConfig(clk, opts.Seed)
	cfg.Deployments = 4
	reg := telemetry.NewRegistry()
	cfg.Store.Metrics = reg
	cfg.Store.OnCommit = inj.NDBOnCommit
	cfg.Store.OnShardService = inj.NDBOnShardService
	cfg.Platform.OnInvoke = inj.FaasOnInvoke
	cfg.Platform.OnProvision = inj.FaasOnProvision
	cfg.RPC.OnTCPFault = inj.RPCOnTCP
	// With artifact output requested, trace the storm so a violation's
	// flight dump carries events alongside registry snapshots.
	cfg.EnableTracing = opts.ArtifactDir != ""

	dirs, files := workload.GenerateNamespace(microTreeShape(opts.Scale))
	c := mustLambda(cfg)
	fr := telemetry.NewFlightRecorder()
	c.Tracer().SetEventSink(fr.RecordEvent)
	workload.PreloadNDB(c.Store(), dirs, files)
	defer c.Close()

	scraper := telemetry.NewScraper(clk, reg, time.Second)
	scraper.OnSnapshot(fr.RecordSnapshot)
	scraper.Start()

	clients, per := scaled(opts.Scale, 32, 16, 8), scaled(opts.Scale, 128, 64, 48)
	mix := workload.Mix{
		{Op: namespace.OpCreate, Weight: 10},
		{Op: namespace.OpMv, Weight: 4},
		{Op: namespace.OpDelete, Weight: 2},
		{Op: namespace.OpRead, Weight: 38},
		{Op: namespace.OpStat, Weight: 36},
		{Op: namespace.OpLs, Weight: 10},
	}
	tree := workload.NewTree(dirs, files)
	client := lambdaClients(c, 2)
	fss := make([]workload.FS, clients)
	for i := range fss {
		fss[i] = client(i)
	}
	cached := func(i int) workload.FS { return fss[i] }

	// Warm phase: connections and instances up, no faults armed.
	warm := workload.RunClosedLoop(clk, tree, mix, clients, per, opts.Seed, cached)

	// Storm phase: between workload waves, arm a seeded batch of faults
	// across every injection layer, plus direct instance kills.
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	waves := scaled(opts.Scale, 4, 4, 2)
	storm := workload.NewRecorder(clk.Now())
	for w := 0; w < waves; w++ {
		inj.ArmKillInvocation(1 + rng.Intn(2))
		inj.ArmProvisionFailure(rng.Intn(2))
		inj.ArmRPCDrop(2 + rng.Intn(3))
		inj.ArmRPCDelay(time.Duration(1+rng.Intn(4))*time.Millisecond, 2)
		inj.ArmShardStall(rng.Intn(4), 5*time.Millisecond, 3)
		c.Platform().KillOneInstance(rng.Intn(cfg.Deployments))
		r := workload.RunClosedLoop(clk, tree, mix, clients, per/2, opts.Seed+int64(w)+11, cached)
		storm.Completed.Add(r.Completed.Load())
		storm.SemanticErrs.Add(r.SemanticErrs.Load())
		storm.TransportErrs.Add(r.TransportErrs.Load())
	}

	// Drain phase: disarm everything and let the system settle before the
	// structural audit (invariants are checked at quiescence).
	inj.Reset()
	drain := workload.RunClosedLoop(clk, tree, mix, clients, 16, opts.Seed+101, cached)
	clk.Sleep(2 * time.Second)

	violations := chaos.CheckStore(c.Store(), nil)
	fired := inj.Fired()
	stats := c.Platform().Stats()
	scraper.ScrapeNow()
	scraper.Stop()

	t := &Table{
		ID:      "chaos-storm",
		Title:   "Full-stack fault storm (faas + RPC + NDB injection)",
		Columns: []string{"metric", "value"},
	}
	row := func(k string, v any) { t.Rows = append(t.Rows, []string{k, fmt.Sprint(v)}) }
	row("warm_ops", warm.Completed.Load())
	row("storm_ops", storm.Completed.Load())
	row("storm_semantic_errs", storm.SemanticErrs.Load())
	row("storm_transport_errs", storm.TransportErrs.Load())
	row("drain_ops", drain.Completed.Load())
	row("instance_kills", stats.Kills)
	row("cold_starts", stats.ColdStarts)
	row("rejections", stats.Rejections)
	for _, kind := range []chaos.FaultKind{
		chaos.FaultKillInstance, chaos.FaultPoolExhausted,
		chaos.FaultRPCDrop, chaos.FaultRPCDelay,
		chaos.FaultShardStall, chaos.FaultShardCrash,
	} {
		row("fired_"+string(kind), fired[kind])
	}
	row("store_violations", len(violations))
	for _, v := range violations {
		t.Notes = append(t.Notes, "VIOLATION: "+v)
	}
	if len(violations) == 0 {
		t.Notes = append(t.Notes, "store structural invariants clean at quiescence")
	}
	if opts.ArtifactDir != "" {
		if err := writeTelemetryArtifacts(opts.ArtifactDir, "chaos-storm", reg, scraper); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("metrics artifacts failed: %v", err))
		}
		if len(violations) > 0 {
			if path, err := dumpFlight(opts.ArtifactDir, "chaos-storm-flight.jsonl", fr); err == nil {
				t.Notes = append(t.Notes, "flight recorder: "+path)
			}
		}
	}
	return t
}
