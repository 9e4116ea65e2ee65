package bench

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"lambdafs/internal/chaos"
)

// TestRunChaosExperiment runs the chaos experiment end-to-end at Tiny
// scale: every phase-A episode must pass all invariants with faults
// actually fired, the phase-B storm must keep serving ops and leave the
// store structurally clean, and episode digests must be reproducible.
func TestRunChaosExperiment(t *testing.T) {
	opts := Options{Scale: Tiny, Seed: 7}
	tables := RunChaos(opts)
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}

	episodes, storm := tables[0], tables[1]
	if episodes.ID != "chaos-episodes" || storm.ID != "chaos-storm" {
		t.Fatalf("table ids = %q, %q", episodes.ID, storm.ID)
	}
	col := func(tb *Table, name string) int {
		for i, c := range tb.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from %v", name, tb.Columns)
		return -1
	}
	vIdx, fIdx, dIdx := col(episodes, "violations"), col(episodes, "faults_fired"), col(episodes, "digest")
	var totalFired int
	for _, row := range episodes.Rows {
		if row[vIdx] != "0" {
			t.Fatalf("episode seed %s reported %s violations", row[0], row[vIdx])
		}
		n, err := strconv.Atoi(row[fIdx])
		if err != nil {
			t.Fatalf("faults_fired %q: %v", row[fIdx], err)
		}
		totalFired += n
		if len(row[dIdx]) != 16 {
			t.Fatalf("digest cell %q", row[dIdx])
		}
	}
	if totalFired == 0 {
		t.Fatal("no faults fired across phase-A episodes")
	}

	// Replay mode: a fixed ChaosSeed reruns one episode with the same
	// digest as the sweep produced for it.
	replay := RunChaos(Options{Scale: Tiny, Seed: 7, ChaosSeed: 7})
	if len(replay) != 1 {
		t.Fatalf("replay tables = %d, want 1 (episodes only)", len(replay))
	}
	if got, want := replay[0].Rows[0][dIdx], episodes.Rows[0][dIdx]; got != want {
		t.Fatalf("replay digest %s != sweep digest %s", got, want)
	}

	metric := map[string]string{}
	for _, row := range storm.Rows {
		metric[row[0]] = row[1]
	}
	if metric["store_violations"] != "0" {
		t.Fatalf("storm left store violations: %s", metric["store_violations"])
	}
	for _, k := range []string{"warm_ops", "storm_ops", "drain_ops"} {
		n, err := strconv.Atoi(metric[k])
		if err != nil || n == 0 {
			t.Fatalf("%s = %q", k, metric[k])
		}
	}
	if metric["instance_kills"] == "0" {
		t.Fatal("storm killed no instances")
	}
}

// goldenStormRows is the full-stack storm's result table per seed, as
// fmt.Sprint prints it. The storm runs on clock.Sim, which schedules its
// goroutines itself, so a seed's table is the same on every run, host and
// GOMAXPROCS; a change that is meant to move the storm (the fault mix, the
// platform's control loop, the clock's order rule) pastes the "got" line of
// the failure below.
var goldenStormRows = map[int64]string{
	11: "[[warm_ops 384] [storm_ops 384] [storm_semantic_errs 0] [storm_transport_errs 0] [drain_ops 128] [instance_kills 5] [cold_starts 17] [rejections 0] [fired_kill_instance 3] [fired_pool_exhausted 1] [fired_rpc_drop 7] [fired_rpc_delay 4] [fired_shard_stall 6] [fired_shard_crash 0] [store_violations 0]]",
	12: "[[warm_ops 384] [storm_ops 384] [storm_semantic_errs 0] [storm_transport_errs 0] [drain_ops 128] [instance_kills 5] [cold_starts 16] [rejections 0] [fired_kill_instance 3] [fired_pool_exhausted 0] [fired_rpc_drop 4] [fired_rpc_delay 4] [fired_shard_stall 6] [fired_shard_crash 0] [store_violations 0]]",
	13: "[[warm_ops 384] [storm_ops 384] [storm_semantic_errs 0] [storm_transport_errs 0] [drain_ops 128] [instance_kills 4] [cold_starts 16] [rejections 0] [fired_kill_instance 2] [fired_pool_exhausted 0] [fired_rpc_drop 7] [fired_rpc_delay 4] [fired_shard_stall 6] [fired_shard_crash 0] [store_violations 0]]",
}

// TestChaosStormSeedDeterminism pins the full-stack storm — including the
// seed-plumbed client RPC jitter (rpc.Config.Seed) — to Options.Seed: two
// runs with the same seed produce byte-identical result tables, and the
// table is the committed one. Run at -cpu 1,2,4.
func TestChaosStormSeedDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		opts := Options{Scale: Tiny, Seed: seed}
		a := runChaosStorm(opts)
		if seed == 11 {
			if b := runChaosStorm(opts); !reflect.DeepEqual(a.Rows, b.Rows) {
				t.Fatalf("storm not deterministic for seed %d:\n run1: %v\n run2: %v", seed, a.Rows, b.Rows)
			}
		}
		if got := fmt.Sprint(a.Rows); got != goldenStormRows[seed] {
			t.Errorf("storm for seed %d moved off its committed table — if the change is meant to move it, paste the got line "+
				"of `go test ./internal/bench/ -run TestChaosStormSeedDeterminism` into goldenStormRows:\n  got: %q\n want: %q",
				seed, got, goldenStormRows[seed])
		}
	}
}

// TestChaosEpisodeDigestMatchesLibrary pins the bench replay path to the
// chaos library: the digest the episodes table prints for a seed must be
// the digest chaos.RunEpisode computes for that seed directly.
func TestChaosEpisodeDigestMatchesLibrary(t *testing.T) {
	const seed = 42
	tb := runChaosEpisodes(Options{Scale: Tiny, Seed: seed, ChaosSeed: seed})
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tb.Rows))
	}
	want := chaos.RunEpisode(chaos.EpisodeConfig{Seed: seed}).Digest[:16]
	got := tb.Rows[0][len(tb.Columns)-1]
	if got != want {
		t.Fatalf("bench digest %s != library digest %s", got, want)
	}
}
