package chaos

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// failoverCluster is a two-NameNode λFS cluster whose store commit path
// can be intercepted per-owner, so tests can kill the leader at an exact
// point inside a subtree operation.
type failoverCluster struct {
	*cluster
	a *core.Engine // nn-0, the initial leader
	b *core.Engine // nn-1, its successor

	mu       sync.Mutex
	onCommit func(owner string) error
}

func newFailoverCluster(t *testing.T, clk *clock.Sim) *failoverCluster {
	t.Helper()
	fc := &failoverCluster{}
	ncfg := zeroStore()
	ncfg.OnCommit = func(owner string) error {
		fc.mu.Lock()
		h := fc.onCommit
		fc.mu.Unlock()
		if h != nil {
			return h(owner)
		}
		return nil
	}
	fc.cluster = newCluster(clk, ncfg, 0, 2, nil)
	fc.a, fc.b = fc.engines[0], fc.engines[1]
	if got := fc.zk.Leader(LeaderGroup); got != "nn-0" {
		t.Fatalf("initial leader = %q, want nn-0", got)
	}
	return fc
}

func (fc *failoverCluster) setOnCommit(h func(owner string) error) {
	fc.mu.Lock()
	fc.onCommit = h
	fc.mu.Unlock()
}

// buildTree creates /big with dirs files each; returns the oracle mirror.
func (fc *failoverCluster) buildTree(t *testing.T, dirs, files int) *Oracle {
	t.Helper()
	m := NewOracle()
	do := func(op namespace.OpType, path string) {
		t.Helper()
		if resp := fc.b.Execute(namespace.Request{Op: op, Path: path}); !resp.OK() {
			t.Fatalf("%v %s: %s", op, path, resp.Err)
		}
		if err := m.Apply(op, path, ""); err != nil {
			t.Fatalf("oracle %v %s: %v", op, path, err)
		}
	}
	do(namespace.OpMkdirs, "/big")
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/big/d%d", d)
		do(namespace.OpMkdirs, dir)
		for f := 0; f < files; f++ {
			do(namespace.OpCreate, fmt.Sprintf("%s/f%d", dir, f))
		}
	}
	return m
}

// checkFailoverOutcome verifies the leader is gone, succession happened,
// the namespace shows no half-renamed subtree, and nothing leaked.
func (fc *failoverCluster) checkFailoverOutcome(t *testing.T, m *Oracle, mvOK bool) {
	t.Helper()
	// The lease expired: nn-0 is no longer a member…
	for _, id := range fc.zk.Members(0) {
		if id == "nn-0" {
			t.Fatal("nn-0 still a coordinator member after lease expiry")
		}
	}
	// …and leadership passed to nn-1.
	if got := fc.zk.Leader(LeaderGroup); got != "nn-1" {
		t.Fatalf("leader after failover = %q, want nn-1", got)
	}

	// All-or-nothing: the subtree lives at exactly one of src/dst, whole.
	want := &Oracle{nodes: maps.Clone(m.nodes)}
	if mvOK {
		if err := want.Mv("/big", "/dst"); err != nil {
			t.Fatalf("oracle mv: %v", err)
		}
	}
	if bad := CheckOracle(fc.db, want); len(bad) != 0 {
		t.Fatalf("half-renamed subtree (mvOK=%v): %v", mvOK, bad)
	}

	// No leaked row locks, subtree locks, or registry entries.
	if bad := CheckStore(fc.db, nil); len(bad) != 0 {
		t.Fatalf("store invariants after failover: %v", bad)
	}

	// The survivor serves the namespace correctly.
	probeRoot := "/big"
	if mvOK {
		probeRoot = "/dst"
	}
	if resp := fc.b.Execute(namespace.Request{Op: namespace.OpStat, Path: probeRoot}); !resp.OK() {
		t.Fatalf("stat %s on survivor: %s", probeRoot, resp.Err)
	}
}

// TestFailoverLeaderKilledMidSubtreeMv kills the leader's coordinator
// session at the final relink commit of mv /big /dst — after the subtree
// lock and quiesce phases persisted state. The lease expires, crashed-
// NameNode cleanup races the in-flight operation, a new leader is
// elected, and the operation must still complete atomically.
func TestFailoverLeaderKilledMidSubtreeMv(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		m := fc.buildTree(t, 6, 6)

		commits := 0
		fc.setOnCommit(func(owner string) error {
			if owner != "nn-0" {
				return nil
			}
			commits++
			if commits == 2 {
				// Commit 1 was the subtree-lock registration; commit 2 is the
				// final relink. Expire the leader's session now — cleanup for
				// the "crashed" NameNode runs synchronously, racing the
				// still-in-flight mv exactly as a watch firing would.
				if !fc.zk.ExpireSession("nn-0") {
					t.Error("ExpireSession(nn-0) found no session")
				}
			}
			return nil
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if commits < 2 {
			t.Fatalf("mv committed %d times for nn-0, expected the lock + relink pair", commits)
		}
		if !resp.OK() {
			t.Fatalf("mv after mid-op lease expiry: %s", resp.Err)
		}
		fc.checkFailoverOutcome(t, m, true)
	})
}

// TestFailoverLeaderKilledAtSubtreeLock kills the leader as it tries to
// commit the subtree-lock transaction itself: the commit aborts (the
// NameNode died before persisting anything) and its lease expires. The op
// must roll back completely — no subtree lock, no registry entry, the
// source subtree untouched — and leadership must pass on.
func TestFailoverLeaderKilledAtSubtreeLock(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		m := fc.buildTree(t, 6, 6)

		fired := false
		fc.setOnCommit(func(owner string) error {
			if owner != "nn-0" || fired {
				return nil
			}
			fired = true
			if !fc.zk.ExpireSession("nn-0") {
				t.Error("ExpireSession(nn-0) found no session")
			}
			return ErrInjected
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if !fired {
			t.Fatal("commit hook never fired")
		}
		if resp.OK() {
			t.Fatal("mv succeeded though its lock commit was killed")
		}
		if !IsInjected(resp.Error()) {
			t.Fatalf("mv error = %v, want injected fault", resp.Error())
		}
		fc.checkFailoverOutcome(t, m, false)
	})
}

// TestFailoverLeaderFlapDuringDelete rotates leadership (Depose — a flap
// without any session loss) in the middle of a recursive delete; the op
// must be unaffected and the deposed leader must re-queue behind the new
// one.
func TestFailoverLeaderFlapDuringDelete(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		fc.buildTree(t, 4, 4)

		flapped := false
		fc.setOnCommit(func(owner string) error {
			if owner == "nn-0" && !flapped {
				flapped = true
				if got := fc.zk.Depose(LeaderGroup); got != "nn-1" {
					t.Errorf("Depose -> %q, want nn-1", got)
				}
			}
			return nil
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpDelete, Path: "/big"})
		fc.setOnCommit(nil)
		if !resp.OK() {
			t.Fatalf("delete during leader flap: %s", resp.Err)
		}
		if !flapped {
			t.Fatal("flap never triggered")
		}
		if got := fc.zk.Leader(LeaderGroup); got != "nn-1" {
			t.Fatalf("leader = %q, want nn-1", got)
		}
		// Old leader is still a live member (no session loss) and re-queued.
		found := false
		for _, id := range fc.zk.Members(0) {
			if id == "nn-0" {
				found = true
			}
		}
		if !found {
			t.Fatal("nn-0 lost its session during a flap")
		}
		if bad := CheckStore(fc.db, nil); len(bad) != 0 {
			t.Fatalf("store invariants after flap: %v", bad)
		}
		want := NewOracle()
		if bad := CheckOracle(fc.db, want); len(bad) != 0 {
			t.Fatalf("delete left residue: %v", bad)
		}
	})
}
