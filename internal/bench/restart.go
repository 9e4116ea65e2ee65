package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"lambdafs/internal/chaos"
	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
)

// This file implements the restart experiment: the durability tier's
// recovery cost as a function of log length and checkpoint cadence.
// Each scenario commits a fixed number of write transactions against a
// durable store (optionally checkpointing on a cadence), "crashes" by
// abandoning the live DB, recovers from the media with ndb.Recover, and
// reports the WAL footprint, the replayed-record count, the virtual
// recovery time, and whether the recovered state is digest-identical to
// the pre-crash committed state. A second table summarises seeded
// chaos crash_restart episodes (fault-flavoured crashes mid-workload).
// All recovery latencies are virtual (WAL fsync, per-record replay, and
// checkpoint probes are billed on the simulated clock), so runs are
// deterministic and every leaf of the committed BENCH_restart.json must
// match exactly (baseline.go).

// RestartSchema identifies the baseline file format.
const RestartSchema = "lambdafs-restart-baseline/v1"

// RestartRow is one measured recovery scenario.
type RestartRow struct {
	// Commits is the number of committed write transactions.
	Commits int `json:"commits"`
	// Checkpoints is how many checkpoint rounds the scenario took.
	Checkpoints int `json:"checkpoints"`
	// WALRecords / WALBytes are the surviving log footprint at crash
	// time (checkpoints truncate the log, so this is what replay pays).
	WALRecords int `json:"wal_records"`
	WALBytes   int `json:"wal_bytes"`
	// BaseLSN is the checkpoint LSN recovery started from.
	BaseLSN uint64 `json:"base_lsn"`
	// CheckpointRows / Replayed split the rebuild between snapshot rows
	// loaded and WAL records replayed.
	CheckpointRows int `json:"checkpoint_rows"`
	Replayed       int `json:"replayed_records"`
	// RecoveryUs is the virtual time the rebuild took (µs).
	RecoveryUs int64 `json:"recovery_us"`
	// DigestMatch reports whether the recovered state is row-for-row
	// identical to the pre-crash committed state.
	DigestMatch bool `json:"digest_match"`
}

// RestartBaseline is the committed BENCH_restart.json document.
type RestartBaseline struct {
	baselineHeader
	Rows map[string]*RestartRow `json:"rows"`
}

// restartScenario names one (log length, checkpoint cadence) point.
type restartScenario struct {
	name      string
	records   int
	ckptEvery int // 0: never checkpoint, replay the whole log
}

// restartScenarios picks the measured points for a scale. The uncheck-
// pointed points sweep log length (recovery time should scale with it);
// the checkpointed point proves a checkpoint bounds replay to the tail.
func restartScenarios(s Scale) []restartScenario {
	return scaled(s,
		[]restartScenario{{"wal_512", 512, 0}, {"wal_2048", 2048, 0}, {"wal_8192", 8192, 0}, {"ckpt_8192", 8192, 2048}},
		[]restartScenario{{"wal_256", 256, 0}, {"wal_1024", 1024, 0}, {"ckpt_1024", 1024, 256}},
		[]restartScenario{{"wal_64", 64, 0}, {"wal_256", 256, 0}, {"ckpt_256", 256, 64}})
}

// restartDigest canonically hashes the store's committed state: every
// inode row (identity, link position, kind, size), sorted by ID. The
// recovered store matches the pre-crash store iff the digests match.
func restartDigest(db *ndb.DB) string {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return fmt.Sprintf("walk-failed: %v", err)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	h := sha256.New()
	for _, n := range nodes {
		fmt.Fprintf(h, "%d %d %q %v %d %d\n", n.ID, n.ParentID, n.Name, n.IsDir, n.Perm, n.Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureRestart runs one scenario: load the log, crash, recover. It
// runs on the discrete-event simulation clock so RecoveryTime is pure
// virtual time (per-record replay, checkpoint probes) and deterministic
// across runs — the regression gate depends on that.
func measureRestart(sc restartScenario) *RestartRow {
	clk := clock.NewSim()
	defer clk.Close()
	row := &RestartRow{Commits: sc.records}
	clock.Run(clk, func() {
		dur := ndb.NewDurable(clk, 4, lsm.DefaultConfig())
		cfg := ndb.DefaultConfig()
		cfg.Durable = dur
		cfg.Durability = ndb.DefaultDurabilityConfig()
		cfg.Durability.CheckpointEvery = 0 // the scenario drives checkpoints
		db := ndb.New(clk, cfg)

		dirID := db.NextID()
		tx := db.Begin("restart-bench")
		if err := tx.PutINode(&namespace.INode{
			ID: dirID, ParentID: namespace.RootID, Name: "bench",
			IsDir: true, Perm: namespace.PermDefaultDir,
		}); err != nil {
			panic(fmt.Sprintf("restart: mkdir /bench: %v", err))
		}
		if err := tx.Commit(); err != nil {
			panic(fmt.Sprintf("restart: commit /bench: %v", err))
		}
		for i := 0; i < sc.records-1; i++ {
			id := db.NextID()
			tx := db.Begin("restart-bench")
			if err := tx.PutINode(&namespace.INode{
				ID: id, ParentID: dirID, Name: fmt.Sprintf("f%06d", i),
				Perm: namespace.PermDefaultFile, Size: int64(i),
			}); err != nil {
				panic(fmt.Sprintf("restart: put f%06d: %v", i, err))
			}
			if err := tx.Commit(); err != nil {
				panic(fmt.Sprintf("restart: commit f%06d: %v", i, err))
			}
			if sc.ckptEvery > 0 && (i+2)%sc.ckptEvery == 0 {
				db.Checkpoint()
				row.Checkpoints++
			}
		}

		preDigest := restartDigest(db)
		row.WALRecords, row.WALBytes = dur.WALSize()

		// Crash: abandon the live store, rebuild from the media.
		recovered, stats, err := ndb.Recover(clk, cfg)
		if err != nil {
			panic(fmt.Sprintf("restart %s: recover: %v", sc.name, err))
		}
		row.BaseLSN = stats.BaseLSN
		row.CheckpointRows = stats.CheckpointRows
		row.Replayed = stats.ReplayedRecords
		row.RecoveryUs = stats.RecoveryTime.Microseconds()
		row.DigestMatch = restartDigest(recovered) == preDigest &&
			len(recovered.CheckIntegrity()) == 0
	})
	return row
}

// RestartMeasure runs all scenarios and returns the baseline document.
func RestartMeasure(opts Options) *RestartBaseline {
	b := &RestartBaseline{
		baselineHeader: baselineHeader{RestartSchema, opts.Scale.String(), opts.Seed},
		Rows:           map[string]*RestartRow{},
	}
	for _, sc := range restartScenarios(opts.Scale) {
		b.Rows[sc.name] = measureRestart(sc)
	}
	return b
}

// RunRestart renders the restart experiment: the recovery-cost sweep
// plus a seeded crash_restart episode battery.
func RunRestart(opts Options) []*Table {
	b := RestartMeasure(opts)
	t := &Table{
		ID:    "restart",
		Title: "Durability: crash-recovery cost vs WAL length and checkpoint cadence (virtual time)",
		Columns: []string{"scenario", "commits", "ckpts", "wal_recs", "wal_bytes",
			"base_lsn", "ckpt_rows", "replayed", "recovery", "digest"},
	}
	for _, sc := range restartScenarios(opts.Scale) {
		r := b.Rows[sc.name]
		match := "match"
		if !r.DigestMatch {
			match = "DIVERGED"
		}
		t.Rows = append(t.Rows, []string{
			sc.name,
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Checkpoints),
			fmt.Sprintf("%d", r.WALRecords),
			fmt.Sprintf("%d", r.WALBytes),
			fmt.Sprintf("%d", r.BaseLSN),
			fmt.Sprintf("%d", r.CheckpointRows),
			fmt.Sprintf("%d", r.Replayed),
			fmtDur(time.Duration(r.RecoveryUs) * time.Microsecond),
			match,
		})
	}
	t.Notes = append(t.Notes,
		"recovery time is virtual: checkpoint probes + per-record replay billed on the simulated clock, so the sweep is deterministic",
		"ckpt_* rows checkpoint on a cadence: replay covers only the records after the last complete round, bounding recovery regardless of history length")
	t.Fprint(opts.out())

	ep := &Table{
		ID:    "restart-episodes",
		Title: "Chaos crash_restart episodes: fault-flavoured crashes recover to the committed prefix",
		Columns: []string{"seed", "steps", "commits", "crashes", "ckpts",
			"replayed", "discarded", "violations"},
	}
	seeds := scaled(opts.Scale, 6, 4, 2)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := chaos.CrashRestartConfig{Seed: opts.Seed*1000 + seed}
		res := chaos.RunCrashRestart(cfg)
		ep.Rows = append(ep.Rows, []string{
			fmt.Sprintf("%d", res.Seed),
			fmt.Sprintf("%d", res.Steps),
			fmt.Sprintf("%d", res.Commits),
			fmt.Sprintf("%d", res.Crashes),
			fmt.Sprintf("%d", res.Checkpoints),
			fmt.Sprintf("%d", res.Replayed),
			fmt.Sprintf("%d", res.Discarded),
			fmt.Sprintf("%d", len(res.Violations)),
		})
		for _, v := range res.Violations {
			ep.Notes = append(ep.Notes, fmt.Sprintf("VIOLATION seed %d: %s", res.Seed, v))
		}
	}
	ep.Notes = append(ep.Notes,
		"each episode mixes clean kills, dropped WAL records, torn tails, and lost checkpoint rounds; every recovery must land digest-exact on the committed prefix",
		"replay any violation with chaos.RunCrashRestart(chaos.CrashRestartConfig{Seed: <seed>}); the whole battery with `lambdafs-bench -seed <run seed> restart`")
	ep.Fprint(opts.out())
	return []*Table{t, ep}
}

// recoveredExact is digest_match's rule: a recovery that diverged from
// the pre-crash committed state fails whatever the committed file says.
func recoveredExact(got, want any) string {
	if got != true {
		return "recovered state diverged from the pre-crash committed state"
	}
	return exactLeaf(got, want)
}
