package chaos

import (
	"testing"

	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
)

// TestCrashRestartEpisodes runs a battery of seeded episodes; every
// recovery must land digest-exact on the committed prefix with clean
// integrity, whatever crash flavours and checkpoint schedules the seeds
// produce.
func TestCrashRestartEpisodes(t *testing.T) {
	totalCrashes, totalCommits, totalReplayed := 0, 0, 0
	fired := map[FaultKind]uint64{}
	for seed := int64(1); seed <= 10; seed++ {
		res := RunCrashRestart(CrashRestartConfig{Seed: seed})
		if res.Failed() {
			t.Fatalf("seed %d: %d violations, first: %s", seed, len(res.Violations), res.Violations[0])
		}
		if res.Crashes == 0 {
			t.Fatalf("seed %d: no crash-recover cycle ran (final restart missing)", seed)
		}
		totalCrashes += res.Crashes
		totalCommits += res.Commits
		totalReplayed += res.Replayed
		for k, v := range res.Fired {
			fired[k] += v
		}
	}
	if totalCommits == 0 || totalReplayed == 0 {
		t.Fatalf("battery did no real work: commits=%d replayed=%d", totalCommits, totalReplayed)
	}
	// Ten seeds at the default crash rate must exercise every durability
	// fault flavour at least once; a flavour that never fires means the
	// schedule silently stopped covering it.
	for _, k := range []FaultKind{FaultCrashRestart, FaultWALDrop, FaultWALTear, FaultCkptLoss} {
		if fired[k] == 0 {
			t.Errorf("fault %s never fired across the battery (fired: %v)", k, fired)
		}
	}
	t.Logf("battery: crashes=%d commits=%d replayed=%d fired=%v",
		totalCrashes, totalCommits, totalReplayed, fired)
}

// goldenCrashRestartDigests are committed RunCrashRestart trail digests
// (first 16 hex digits): a refactor that moves one rng draw of the op or
// crash schedule moves them.
var goldenCrashRestartDigests = map[int64]string{
	1:    "db7bb422ed079af5",
	2:    "52ea73c201fadc48",
	42:   "e85755281820a82b",
	1001: "3c2e82db8e403afe",
}

// TestCrashRestartDeterministic pins the reproducibility contract: every
// seed replays to its committed trail digest, and different seeds diverge.
func TestCrashRestartDeterministic(t *testing.T) {
	seen := map[string]int64{}
	for seed, want := range goldenCrashRestartDigests {
		got := RunCrashRestart(CrashRestartConfig{Seed: seed}).Digest
		if got[:16] != want {
			t.Errorf("seed %d: trail digest %.16s, committed %s", seed, got, want)
		}
		if other, dup := seen[got]; dup {
			t.Errorf("seeds %d and %d produced the same trail digest %s", other, seed, got)
		}
		seen[got] = seed
	}
}

// TestCrashRestartCatchesSabotage proves the harness is not vacuous: a
// deliberately broken recovery path — here, a hook that silently drops
// one committed row from every recovered store, exactly what a buggy
// replayer losing a record would look like — must produce violations
// that the clean control run does not.
func TestCrashRestartCatchesSabotage(t *testing.T) {
	sabotage := func(db *ndb.DB) {
		nodes, err := db.ListSubtree(namespace.RootID)
		if err != nil || len(nodes) <= 1 {
			return // nothing committed yet; nothing to lose
		}
		hasChild := map[namespace.INodeID]bool{}
		for _, n := range nodes {
			hasChild[n.ParentID] = true
		}
		for _, n := range nodes {
			if n.ID == namespace.RootID || hasChild[n.ID] {
				continue
			}
			tx := db.Begin("sabotage")
			if err := tx.DeleteINode(n.ID); err != nil {
				tx.Abort()
				return
			}
			_ = tx.Commit() //vet:allow errcheck sabotage is best-effort by design
			return
		}
	}

	caught := false
	for seed := int64(1); seed <= 5; seed++ {
		control := RunCrashRestart(CrashRestartConfig{Seed: seed})
		if control.Failed() {
			t.Fatalf("seed %d: control run not clean: %s", seed, control.Violations[0])
		}
		if res := RunCrashRestart(CrashRestartConfig{Seed: seed, SabotageRecovered: sabotage}); res.Failed() {
			caught = true
			t.Logf("seed %d: sabotage caught: %s", seed, res.Violations[0])
			break
		}
	}
	if !caught {
		t.Fatal("sabotaged replayer survived every seed: the harness checks are vacuous")
	}
}

// TestInjectorDurabilityArming covers the WAL/checkpoint hooks the
// durability tier consults (the pre-existing TestInjectorArming covers
// the original fault classes).
func TestInjectorDurabilityArming(t *testing.T) {
	in := NewInjector()

	in.ArmWALDrop(1)
	if got := in.NDBOnWALAppend(0, 1, 100); got != 0 {
		t.Fatalf("armed drop returned %d durable bytes, want 0", got)
	}
	if got := in.NDBOnWALAppend(0, 2, 100); got != 100 {
		t.Fatalf("disarmed append returned %d, want full 100", got)
	}

	in.ArmWALTear(40, 1)
	if got := in.NDBOnWALAppend(1, 3, 100); got != 40 {
		t.Fatalf("armed tear kept %d bytes, want 40", got)
	}
	in.ArmWALTear(500, 1) // keep beyond the frame must still lose >= 1 byte
	if got := in.NDBOnWALAppend(1, 4, 100); got != 99 {
		t.Fatalf("oversized tear kept %d bytes, want 99", got)
	}

	// Drops win over tears when both are armed.
	in.ArmWALDrop(1)
	in.ArmWALTear(10, 1)
	if got := in.NDBOnWALAppend(2, 5, 64); got != 0 {
		t.Fatalf("drop+tear returned %d, want drop (0)", got)
	}
	if !in.Pending() {
		t.Fatal("tear should still be pending after the drop consumed the append")
	}
	in.Reset()
	if in.Pending() {
		t.Fatal("Reset left faults pending")
	}
	if got := in.NDBOnWALAppend(2, 6, 64); got != 64 {
		t.Fatalf("post-reset append returned %d, want 64", got)
	}

	in.ArmCheckpointLoss(2)
	if in.NDBOnCheckpoint(0) || in.NDBOnCheckpoint(1) {
		t.Fatal("armed checkpoint loss did not fire")
	}
	if !in.NDBOnCheckpoint(2) {
		t.Fatal("disarmed checkpoint round was lost")
	}

	fired := in.Fired()
	want := map[FaultKind]uint64{FaultWALDrop: 2, FaultWALTear: 2, FaultCkptLoss: 2}
	for k, n := range want {
		if fired[k] != n {
			t.Fatalf("fired[%s] = %d, want %d (all: %v)", k, fired[k], n, fired)
		}
	}
}
