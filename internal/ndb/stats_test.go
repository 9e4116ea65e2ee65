package ndb

import (
	"errors"
	"math"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// TestStatsReadTheRegistry: Stats() is a read of the registry. After a run
// with commits, an abort, a lock wait, a lock timeout, WAL appends, a
// checkpoint and both resolution shapes, every field equals the instrument
// a Gather of the same registry reports — and a store recovered onto that
// registry carries the counts on across the crash.
func TestStatsReadTheRegistry(t *testing.T) {
	sim := simtest.New(t)
	reg := telemetry.NewRegistry()
	cfg := durableCfg(NewDurable(sim, 2, zeroLSM()))
	cfg.Durability.CheckpointEvery = 2
	cfg.Metrics = reg
	clock.Run(sim, func() {
		db := New(sim, cfg)
		id := addFile(t, db, namespace.RootID, "a")
		addFile(t, db, namespace.RootID, "b")
		if _, err := db.ResolvePath("/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ResolvePathBatched("/b", nil); err != nil {
			t.Fatal(err)
		}

		// A holder keeps /a exclusive for 3ms: the first waiter waits it
		// out, the second (holder never releasing) times out.
		holder := db.Begin("holder")
		if _, err := holder.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		g := clock.NewGroup(sim)
		g.Go(func() {
			sim.Sleep(3 * time.Millisecond)
			holder.Abort()
		})
		waiter := db.Begin("waiter")
		if _, err := waiter.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		g.Wait()
		late := db.Begin("late")
		if _, err := late.GetINode(id, store.LockExclusive); !errors.Is(err, store.ErrLockTimeout) {
			t.Fatalf("second waiter: %v, want a lock timeout", err)
		}
		late.Abort()
		waiter.Abort()

		s := db.Stats()
		if s.Commits != 2 || s.Aborts != 3 || s.WALAppends != 2 || s.Checkpoints != 1 || s.LockTimeouts != 1 ||
			s.BatchedResolves != 1 || s.LockWaitNS != uint64(3*time.Millisecond+cfg.LockWaitTimeout) {
			t.Fatalf("the run did not drive what it meant to: %+v", s)
		}
		got := map[string]float64{}
		for _, m := range reg.Gather() {
			got[m.Name] = m.Value
		}
		for name, want := range map[string]float64{
			"lambdafs_ndb_reads_total":             float64(s.Reads),
			"lambdafs_ndb_writes_total":            float64(s.Writes),
			"lambdafs_ndb_tx_commits_total":        float64(s.Commits),
			"lambdafs_ndb_tx_aborts_total":         float64(s.Aborts),
			"lambdafs_ndb_lock_timeouts_total":     float64(s.LockTimeouts),
			"lambdafs_ndb_batched_resolves_total":  float64(s.BatchedResolves),
			"lambdafs_ndb_resolve_hops_total":      float64(s.ResolveHops),
			"lambdafs_ndb_lock_wait_seconds_total": float64(s.LockWaitNS) / 1e9,
			"lambdafs_ndb_wal_appends_total":       float64(s.WALAppends),
			"lambdafs_ndb_wal_bytes_total":         float64(s.WALBytes),
			"lambdafs_ndb_checkpoints_total":       float64(s.Checkpoints),
		} {
			// 1e-9: the seconds counter is a float sum, Stats rounds it to the ns.
			if v, ok := got[name]; !ok || math.Abs(v-want) > 1e-9 {
				t.Errorf("%s = %v (registered: %v), Stats says %v", name, v, ok, want)
			}
		}

		recovered, _, err := Recover(sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after := recovered.Stats(); after != s {
			t.Errorf("counts moved across the crash: %+v before, %+v on the recovered store", s, after)
		}
		addFile(t, recovered, namespace.RootID, "c")
		if after := recovered.Stats(); after.Commits != s.Commits+1 {
			t.Errorf("commits %d before the crash, %d after one more on the recovered store", s.Commits, after.Commits)
		}
	})
}

// TestStatsWithoutRegistry: a store given no registry counts in a private
// one, which it shares with no other store.
func TestStatsWithoutRegistry(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b := testDB(clk), testDB(clk)
		for i := 0; i < 3; i++ {
			if _, err := a.ResolvePath("/"); err != nil {
				t.Fatal(err)
			}
		}
		addFile(t, b, namespace.RootID, "only-in-b")
		if sa, sb := a.Stats(), b.Stats(); sa.Reads != 3 || sa.Commits != 0 || sb.Reads != 0 || sb.Commits != 1 {
			t.Fatalf("two stores without a registry: a counted %+v, b counted %+v", sa, sb)
		}
	})
}

// TestReadOnlyAbortIsNotCounted: a cache fill ends its shared-locked
// transaction with Abort, which undoes nothing; only a transaction that
// asked for an exclusive lock counts in lambdafs_ndb_tx_aborts_total.
func TestReadOnlyAbortIsNotCounted(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		addFile(t, db, namespace.RootID, "f")
		fill := db.Begin("reader")
		if _, err := fill.ResolvePathBatched("/f", store.LockShared, store.LockShared); err != nil {
			t.Fatal(err)
		}
		fill.Abort()
		if n := db.Stats().Aborts; n != 0 {
			t.Fatalf("a shared-locked resolve ended by Abort counted %d aborts, want 0", n)
		}
		write := db.Begin("writer")
		if _, err := write.LockPath("/f"); err != nil {
			t.Fatal(err)
		}
		write.Abort()
		if n := db.Stats().Aborts; n != 1 {
			t.Fatalf("an aborted write's lock phase counted %d aborts, want 1", n)
		}
	})
}
