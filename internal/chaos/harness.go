package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// The model-checked episode's shape: every episode runs episodeSteps
// steps against episodeEngines engines and arms a fault before roughly
// one step in faultEvery.
const (
	episodeSteps   = 120
	episodeEngines = 3
	faultEvery     = 5
)

// EpisodeConfig shapes one deterministic chaos episode: a multi-engine
// λFS cluster (shared store + coordinator, instances of one deployment)
// driven by a seeded sequence of client operations with seeded faults
// armed between steps. Everything — op mix, paths, issuing client, serving
// engine, and the fault schedule — derives from Seed, operations are issued
// sequentially and the episode runs on a clock.Sim of its own, so the whole
// episode — digest, trace timestamps, the virtual time its stalls cost — is
// a pure function of the configuration: same seed, same bytes.
type EpisodeConfig struct {
	Seed int64
	// Flight, when non-nil, rides along for failure dumps: it receives
	// every event of the episode's tracer as it is emitted and, at the end,
	// one snapshot of Metrics stamped by the episode's clock.
	Flight *telemetry.FlightRecorder
	// Metrics, when non-nil, wires the episode's store, coordinator and
	// engines into a telemetry registry.
	Metrics *telemetry.Registry
	// Sabotage, when non-nil, runs at the top of every step with direct
	// store access, BEFORE the step's operation and invariant checks. It
	// exists for telemetry/flight-recorder regression tests that need a
	// guaranteed invariant violation at a chosen step (e.g. Preload a
	// ghost inode the oracle never saw); production episodes leave it
	// nil.
	Sabotage func(step int, db *ndb.DB)
}

// StepRecord is one canonical step-log entry; the episode digest is
// computed over these plus the final store state, and deliberately
// excludes wall-clock timestamps.
type StepRecord struct {
	Step   int
	Client int
	Op     string
	Path   string
	Dest   string
	Err    string // wire error text, "" on success
	Fault  string // fault armed before this step, "" when none
}

// Result is the outcome of one episode.
type Result struct {
	Seed        int64
	Steps       []StepRecord
	Digest      string // sha256 over the step log + final namespace
	Violations  []string
	FaultsFired map[FaultKind]uint64
	FinalINodes int
	// Elapsed is the virtual time the episode took: every engine and store
	// latency is zero, so it is what the injected stalls cost.
	Elapsed time.Duration
	// Tracer holds the per-op traces and chaos_fault events, stamped in the
	// episode's virtual time, for post-mortem JSONL dumps.
	Tracer *trace.Tracer
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// episode is the running cluster state.
type episode struct {
	cfg     EpisodeConfig
	rng     *rand.Rand
	inj     *Injector
	c       *cluster
	oracle  *Oracle
	touched map[string]bool // every path any op referenced (cache probe set)
	frozen  Frozen          // every published row any check has met
	prev    ndb.Stats
	res     *Result
}

// RunEpisode executes one deterministic chaos episode and returns its
// result. It never calls testing hooks; the caller decides how to react to
// violations (fail a test, print a replay line, tabulate in a bench).
func RunEpisode(cfg EpisodeConfig) *Result {
	clk := clock.NewSim()
	defer clk.Close()
	var res *Result
	clock.Run(clk, func() { res = runEpisode(clk, cfg) })
	return res
}

func runEpisode(clk *clock.Sim, cfg EpisodeConfig) *Result {
	ep := &episode{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		inj:     NewInjector(),
		oracle:  NewOracle(),
		touched: map[string]bool{"/": true},
		frozen:  Frozen{},
		res:     &Result{Seed: cfg.Seed, Tracer: trace.New(clk, trace.Config{})},
	}
	if cfg.Flight != nil {
		ep.res.Tracer.SetEventSink(cfg.Flight.RecordEvent)
	}
	ep.inj.SetOnFault(func(kind FaultKind, detail string) {
		ep.res.Tracer.Emit(trace.Event{
			Type: trace.EventChaosFault, Detail: string(kind) + " " + detail,
		})
	})

	ncfg := injected(zeroStore(), ep.inj)
	ncfg.Metrics = cfg.Metrics
	ep.c = newCluster(clk, ncfg, 0, episodeEngines, nil)
	ep.prev = ep.c.db.Stats()

	for step := 0; step < episodeSteps && !ep.res.Failed(); step++ {
		if cfg.Sabotage != nil {
			cfg.Sabotage(step, ep.c.db)
		}
		fault := ep.maybeArmFault()
		ep.runStep(step, fault)
	}
	ep.finish()
	return ep.res
}

// maybeArmFault decides, from the seed stream, whether to arm a fault
// before this step, and returns its canonical description ("" = none).
func (ep *episode) maybeArmFault() string {
	if ep.rng.Intn(faultEvery) != 0 {
		return ""
	}
	switch ep.rng.Intn(5) {
	case 0:
		// Transaction abort: armed only when the upcoming step is a
		// single-transaction write that will reach commit (see runStep,
		// which consults pendingAbortable). Deferred: flag it and let
		// runStep arm it once the op is known.
		return "tx_abort"
	case 1:
		shard := ep.rng.Intn(4)
		ep.inj.ArmShardStall(shard, 2*time.Millisecond, 3)
		return fmt.Sprintf("shard_stall shard=%d", shard)
	case 2:
		shard := ep.rng.Intn(4)
		// A long window models shard crash + redo-log recovery.
		ep.inj.ArmShardStall(shard, 500*time.Millisecond, 2)
		return fmt.Sprintf("shard_crash shard=%d", shard)
	case 3:
		slot := ep.rng.Intn(episodeEngines)
		old := ep.c.replace(slot, ep.inj)
		return fmt.Sprintf("lease_expiry slot=%d nn=%s", slot, old)
	default:
		newLeader := ep.c.zk.Depose(LeaderGroup)
		ep.inj.NoteFired(FaultLeaderFlap, "leader="+newLeader)
		return fmt.Sprintf("leader_flap leader=%s", newLeader)
	}
}

func (ep *episode) runStep(step int, fault string) {
	client, engine, req := ep.c.next(ep.rng, episodeMix)
	op, path, dest := req.Op, req.Path, req.Dest

	if fault == "tx_abort" {
		// Arm only when this step is a single-transaction write the oracle
		// predicts will reach commit; aborting a concurrent subtree batch
		// would make which batch dies racy, breaking replay determinism.
		if ep.abortable(op, path) {
			ep.inj.ArmTxAbort(1)
		} else {
			fault = "tx_abort skipped"
		}
	}

	ep.touched[path] = true
	for _, anc := range namespace.Ancestors(path) {
		ep.touched[anc] = true
	}
	if dest != "" {
		ep.touched[dest] = true
		for _, anc := range namespace.Ancestors(dest) {
			ep.touched[anc] = true
		}
	}

	tc := ep.res.Tracer.StartTrace(op.String(), path, req.ClientID)
	req.TC = tc
	resp := engine.Execute(req)
	tc.Finish(resp.Err)

	rec := StepRecord{
		Step: step, Client: client, Op: op.String(),
		Path: path, Dest: dest, Err: resp.Err, Fault: fault,
	}
	ep.res.Steps = append(ep.res.Steps, rec)

	ep.judge(step, op, path, dest, resp)
	if !ep.res.Failed() {
		ep.checkStep(step)
	}
}

// abortable reports whether (op, path) is a single-transaction write that
// the oracle predicts will reach commit.
func (ep *episode) abortable(op namespace.OpType, path string) bool {
	switch op {
	case namespace.OpCreate:
		return !ep.oracle.Has(path) && ep.oracle.IsDir(namespace.ParentPath(path))
	case namespace.OpMkdirs:
		return !slices.ContainsFunc(append(namespace.Ancestors(path), path), ep.oracle.IsFile)
	}
	return false
}

// judge compares the engine's answer with the oracle, reconciling the
// oracle from store ground truth when an injected fault excuses a failed
// write (whether the transaction aborted cleanly is then re-established
// from what actually persisted).
func (ep *episode) judge(step int, op namespace.OpType, path, dest string, resp *namespace.Response) {
	violate := func(format string, args ...any) {
		ep.res.Violations = append(ep.res.Violations,
			fmt.Sprintf("step %d: ", step)+fmt.Sprintf(format, args...))
	}
	if op.IsWrite() {
		gotErr := resp.Error()
		modelErr := ep.oracle.Apply(op, path, dest)
		switch {
		case gotErr == nil && modelErr == nil:
			// Agreement.
		case gotErr != nil && IsInjected(gotErr):
			// Excused by an injected fault: rebuild the oracle from the
			// store's ground truth and keep checking from there.
			m, err := OracleFromStore(ep.c.db)
			if err != nil {
				violate("oracle reconcile failed: %v", err)
				return
			}
			ep.oracle = m
		case gotErr != nil && modelErr != nil:
			if !errors.Is(gotErr, modelErr) {
				violate("%v %s -> engine %v, oracle %v", op, path, gotErr, modelErr)
			}
		case gotErr != nil:
			if errors.Is(gotErr, store.ErrLockTimeout) {
				violate("%v %s -> unexpected lock timeout", op, path)
			} else {
				violate("%v %s -> engine failed (%v), oracle succeeded", op, path, gotErr)
			}
		default:
			violate("%v %s -> engine succeeded, oracle refused (%v)", op, path, modelErr)
		}
		return
	}
	// Reads: stat and ls must agree with the oracle exactly.
	switch op {
	case namespace.OpStat:
		switch has := ep.oracle.Has(path); {
		case has != resp.OK():
			violate("stat %s -> engine %q, oracle has it: %v", path, resp.Err, has)
		case has && resp.Stat.IsDir != ep.oracle.IsDir(path):
			violate("stat %s kind mismatch: engine dir=%v oracle dir=%v",
				path, resp.Stat.IsDir, ep.oracle.IsDir(path))
		}
	case namespace.OpLs:
		want, wantErr := ep.oracle.List(path)
		if (wantErr == nil) != resp.OK() {
			violate("ls %s -> engine %q, oracle %v", path, resp.Err, wantErr)
			return
		}
		got := make([]string, 0, len(resp.Entries))
		for _, ent := range resp.Entries {
			got = append(got, ent.Name)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			violate("ls %s = %v, oracle %v", path, got, want)
		}
	}
}

// checkStep runs the post-step invariants.
func (ep *episode) checkStep(step int) {
	cur := ep.c.db.Stats()
	bad := slices.Concat(CheckStore(ep.c.db, ep.frozen), CheckOracle(ep.c.db, ep.oracle),
		CheckCaches(ep.c.engines, ep.oracle, ep.touched, ep.frozen), checkMonotone(ep.prev, cur))
	ep.prev = cur
	for _, v := range bad {
		ep.res.Violations = append(ep.res.Violations, fmt.Sprintf("step %d: %s", step, v))
	}
}

// finish runs the final sweep and seals the digest.
func (ep *episode) finish() {
	ep.res.FaultsFired = ep.inj.Fired()
	ep.res.FinalINodes = ep.c.db.INodeCount()
	ep.res.Elapsed = ep.c.clk.Since(clock.Epoch)
	if ep.cfg.Flight != nil && ep.cfg.Metrics != nil {
		ep.cfg.Flight.RecordSnapshot(telemetry.NewScraper(ep.c.clk, ep.cfg.Metrics, time.Second).ScrapeNow())
	}

	h := sha256.New()
	for _, r := range ep.res.Steps {
		fmt.Fprintf(h, "%d|%d|%s|%s|%s|%s|%s\n",
			r.Step, r.Client, r.Op, r.Path, r.Dest, r.Err, r.Fault)
	}
	final, err := OracleFromStore(ep.c.db)
	if err != nil {
		ep.res.Violations = append(ep.res.Violations,
			fmt.Sprintf("final store walk failed: %v", err))
	} else {
		for _, p := range final.Paths() {
			kind := "f"
			if final.IsDir(p) {
				kind = "d"
			}
			fmt.Fprintf(h, "final|%s|%s\n", kind, p)
		}
	}
	fmt.Fprintf(h, "inodes|%d\n", ep.res.FinalINodes)
	ep.res.Digest = hex.EncodeToString(h.Sum(nil))
}
