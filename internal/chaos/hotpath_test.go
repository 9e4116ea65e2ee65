package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

// This file chaos-tests the hot-path parallelism added by the batched
// resolution / parallel-invalidation / partitioned-subtree work: a
// NameNode dying in the middle of a concurrent INV/ACK round, and an NDB
// shard faulting in the middle of a partitioned subtree mv. Both episodes
// are run twice and must produce byte-identical digests — the parallel
// paths may reorder work in time, but never in outcome.

// hotpathDigest seals an episode: the step log plus the final namespace,
// excluding all timing (parallel schedules may differ between runs).
func hotpathDigest(t *testing.T, db *ndb.DB, steps []string) string {
	t.Helper()
	h := sha256.New()
	for _, s := range steps {
		fmt.Fprintf(h, "%s\n", s)
	}
	m, err := OracleFromStore(db)
	if err != nil {
		t.Fatalf("final store walk: %v", err)
	}
	for _, p := range m.Paths() {
		kind := "f"
		if m.IsDir(p) {
			kind = "d"
		}
		fmt.Fprintf(h, "final|%s|%s\n", kind, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// invalidationKillEpisode builds a four-NameNode cluster, warms the peers'
// caches, and kills nn-2 from inside nn-1's invalidation handler — i.e. in
// the middle of the concurrent INV/ACK round for delete /w/f0. The round
// must excuse the dead member, every survivor must still apply the INV,
// and the episode must replay to the same digest.
func invalidationKillEpisode(t *testing.T, clk *clock.Sim) (digest string) {
	t.Helper()
	killed := false
	cl := newCluster(clk, zeroStore(), 0, 4, func(cl *cluster) {
		cl.invalidate = func(e *core.Engine, inv coordinator.Invalidation) {
			// Mid-round NameNode death: the INV for /w/f0 is in flight to
			// every peer concurrently when nn-2's session expires.
			if e.ID() == "nn-1" && inv.Path == "/w/f0" && !killed {
				killed = true
				cl.zk.ExpireSession("nn-2")
			}
			e.HandleInvalidation(inv)
		}
	})
	a, b, c, d := cl.engines[0], cl.engines[1], cl.engines[2], cl.engines[3]

	m := NewOracle()
	var steps []string
	do := func(e *core.Engine, op namespace.OpType, path string) {
		t.Helper()
		resp := e.Execute(namespace.Request{Op: op, Path: path})
		steps = append(steps, fmt.Sprintf("%s|%v|%s|%s", e.ID(), op, path, resp.Err))
		if op.IsWrite() {
			if !resp.OK() {
				t.Fatalf("%v %s on %s: %s", op, path, e.ID(), resp.Err)
			}
			if err := m.Apply(op, path, ""); err != nil {
				t.Fatalf("oracle %v %s: %v", op, path, err)
			}
		}
	}

	do(a, namespace.OpMkdirs, "/w")
	do(a, namespace.OpCreate, "/w/f0")
	do(a, namespace.OpCreate, "/w/f1")
	// Warm every peer's cache with the paths about to be invalidated.
	for _, e := range []*core.Engine{b, c, d} {
		do(e, namespace.OpStat, "/w/f0")
		do(e, namespace.OpStat, "/w/f1")
	}
	// A multi-path round: mkdirs sends all created paths in one batch.
	do(a, namespace.OpMkdirs, "/w/a/b/c")
	// The round that kills nn-2 mid-flight.
	do(a, namespace.OpDelete, "/w/f0")
	// A follow-up round against the reduced membership.
	do(a, namespace.OpCreate, "/w/g")

	if !killed {
		t.Fatal("the mid-round kill never fired")
	}
	for _, id := range cl.zk.Members(0) {
		if id == "nn-2" {
			t.Fatal("nn-2 still a member after mid-round expiry")
		}
	}
	if bad := CheckStore(cl.db, nil); len(bad) != 0 {
		t.Fatalf("store invariants: %v", bad)
	}
	if bad := CheckOracle(cl.db, m); len(bad) != 0 {
		t.Fatalf("namespace diverged: %v", bad)
	}
	// Cache coherence across the survivors (nn-2 died; a FaaS instance
	// that expires never serves again, so its cache is out of scope).
	probe := map[string]bool{}
	for _, p := range []string{"/w", "/w/f0", "/w/f1", "/w/a", "/w/a/b", "/w/a/b/c", "/w/g"} {
		probe[p] = true
	}
	if bad := CheckCaches([]*core.Engine{a, b, d}, m, probe, nil); len(bad) != 0 {
		t.Fatalf("cache coherence after mid-round kill: %v", bad)
	}
	return hotpathDigest(t, cl.db, steps)
}

func TestChaosNameNodeKilledMidParallelInvalidation(t *testing.T) {
	var a, b string
	simtest.Run(t, func(clk *clock.Sim) { a = invalidationKillEpisode(t, clk) })
	simtest.Run(t, func(clk *clock.Sim) { b = invalidationKillEpisode(t, clk) })
	if a != b {
		t.Fatalf("episode digest not replay-stable:\n  run1 %s\n  run2 %s", a, b)
	}
}

// shardFaultMvEpisode runs a partitioned subtree mv (small SubtreeBatch so
// several per-partition transactions commit concurrently) with an NDB
// shard crash-recovery window armed mid-operation. The mv must complete
// atomically, the peer's cache must honor the prefix INV, and the episode
// must replay to the same digest.
func shardFaultMvEpisode(t *testing.T, clk *clock.Sim) (digest string) {
	t.Helper()
	inj := NewInjector()
	// A small SubtreeBatch forces several concurrent quiesce partitions.
	cl := newCluster(clk, injected(zeroStore(), inj), 0, 2, func(cl *cluster) { cl.ecfg.SubtreeBatch = 32 })
	a, b := cl.engines[0], cl.engines[1]

	m := NewOracle()
	var steps []string
	do := func(e *core.Engine, op namespace.OpType, path, dest string) {
		t.Helper()
		resp := e.Execute(namespace.Request{Op: op, Path: path, Dest: dest})
		steps = append(steps, fmt.Sprintf("%s|%v|%s|%s|%s", e.ID(), op, path, dest, resp.Err))
		if op.IsWrite() {
			if !resp.OK() {
				t.Fatalf("%v %s on %s: %s", op, path, e.ID(), resp.Err)
			}
			if err := m.Apply(op, path, dest); err != nil {
				t.Fatalf("oracle %v %s: %v", op, path, err)
			}
		}
	}

	do(a, namespace.OpMkdirs, "/big", "")
	for d := 0; d < 8; d++ {
		dir := fmt.Sprintf("/big/d%d", d)
		do(a, namespace.OpMkdirs, dir, "")
		for f := 0; f < 8; f++ {
			do(a, namespace.OpCreate, fmt.Sprintf("%s/f%d", dir, f), "")
		}
	}
	// Warm the peer's cache inside the subtree; the mv's prefix INV must
	// clear these entries.
	do(b, namespace.OpStat, "/big/d0/f0", "")
	do(b, namespace.OpStat, "/big/d7/f7", "")

	// Shard 1 crashes and replays its redo log (long stall window) across
	// the next few accesses — which land inside the mv's quiesce batches.
	inj.ArmShardStall(1, 500*time.Millisecond, 6)
	do(a, namespace.OpMv, "/big", "/dst")

	if n := inj.Fired()[FaultShardCrash]; n == 0 {
		t.Fatal("shard fault never fired during the partitioned mv")
	}
	if bad := CheckStore(cl.db, nil); len(bad) != 0 {
		t.Fatalf("store invariants: %v", bad)
	}
	if bad := CheckOracle(cl.db, m); len(bad) != 0 {
		t.Fatalf("half-renamed subtree: %v", bad)
	}
	probe := map[string]bool{"/big": true, "/dst": true}
	for d := 0; d < 8; d++ {
		for f := 0; f < 8; f++ {
			probe[fmt.Sprintf("/big/d%d/f%d", d, f)] = true
			probe[fmt.Sprintf("/dst/d%d/f%d", d, f)] = true
		}
	}
	if bad := CheckCaches([]*core.Engine{a, b}, m, probe, nil); len(bad) != 0 {
		t.Fatalf("cache coherence after shard fault: %v", bad)
	}
	return hotpathDigest(t, cl.db, steps)
}

func TestChaosShardFaultMidPartitionedMv(t *testing.T) {
	var a, b string
	simtest.Run(t, func(clk *clock.Sim) { a = shardFaultMvEpisode(t, clk) })
	simtest.Run(t, func(clk *clock.Sim) { b = shardFaultMvEpisode(t, clk) })
	if a != b {
		t.Fatalf("episode digest not replay-stable:\n  run1 %s\n  run2 %s", a, b)
	}
}
