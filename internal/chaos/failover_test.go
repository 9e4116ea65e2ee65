package chaos

import (
	"errors"
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
// can be intercepted per-owner, so tests can kill a NameNode at an exact
// point inside a subtree operation.
type failoverCluster struct {
	*cluster
	a *core.Engine // nn-0, the NameNode the tests kill
	b *core.Engine // nn-1, the survivor

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

// checkFailoverOutcome verifies nn-0 left the membership, the namespace
// shows no half-renamed subtree, nothing leaked, and the survivor serves.
func (fc *failoverCluster) checkFailoverOutcome(t *testing.T, m *Oracle, mvOK bool) {
	t.Helper()
	// The lease expired: nn-0 is no longer a member.
	for _, id := range fc.zk.Members(0) {
		if id == "nn-0" {
			t.Fatal("nn-0 still a coordinator member after lease expiry")
		}
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

// TestFailoverKilledMidSubtreeMv kills nn-0 at the final relink commit
// of mv /big /dst — after the subtree lock and quiesce phases persisted
// state. Its lease expires there, and crashed-NameNode cleanup races the
// in-flight operation; the dead NameNode persists nothing more, so only
// that cleanup breaks the subtree lock it left. The client then resubmits
// the mv to the survivor, which must complete it atomically.
func TestFailoverKilledMidSubtreeMv(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		m := fc.buildTree(t, 6, 6)

		commits := 0
		fc.setOnCommit(func(owner string) error {
			if owner != "nn-0" {
				return nil
			}
			commits++
			switch {
			case commits == 1:
				return nil
			case commits == 2:
				// Commit 1 was the subtree-lock registration; commit 2 is the
				// final relink. Crash nn-0's session now — cleanup for the
				// crashed NameNode runs synchronously, racing the
				// still-in-flight mv exactly as a watch firing would.
				fc.sessions[0].Crash()
			}
			// A dead NameNode persists nothing: not the relink, not its
			// own subtree unlock.
			return ErrInjected
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if commits < 2 {
			t.Fatalf("mv committed %d times for nn-0, expected the lock + relink pair", commits)
		}
		if resp.OK() || !IsInjected(resp.Error()) {
			t.Fatalf("mv on the killed NameNode: %v, want the injected fault", resp.Error())
		}
		if resp := fc.b.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"}); !resp.OK() {
			t.Fatalf("mv resubmitted to the survivor after mid-op lease expiry: %s", resp.Err)
		}
		fc.checkFailoverOutcome(t, m, true)
	})
}

// TestFailoverKilledAtSubtreeLock kills nn-0 just after its subtree-lock
// transaction commits: the lock persisted, and nothing nn-0 commits after
// it does, so the mv fails without unlocking. Its lease expires only once
// the operation has given up, and the crash watch alone must roll the op
// back completely — no subtree lock, no registry entry, the source subtree
// untouched — and the survivor must serve.
func TestFailoverKilledAtSubtreeLock(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		m := fc.buildTree(t, 6, 6)

		commits := 0
		fc.setOnCommit(func(owner string) error {
			if owner != "nn-0" {
				return nil
			}
			if commits++; commits == 1 {
				return nil // the subtree lock lands; nn-0 dies right after it
			}
			return ErrInjected
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if commits < 2 {
			t.Fatalf("mv committed %d times for nn-0, expected the lock and a refused relink", commits)
		}
		if resp.OK() {
			t.Fatal("mv succeeded though its NameNode died after the lock commit")
		}
		if !IsInjected(resp.Error()) {
			t.Fatalf("mv error = %v, want injected fault", resp.Error())
		}
		fc.sessions[0].Crash()
		fc.checkFailoverOutcome(t, m, false)
	})
}

// TestFailoverFencesZombieRelink kills nn-0 from inside its relink commit
// of mv /big /dst, after the hook let it through: crash cleanup drops the
// six row locks the relink holds, and in that window the survivor creates
// /big/d0/late and runs mkdirs /dst, both of which succeed. A store that
// only unlocks then lets the dead NameNode's relink commit over the
// survivor's /dst entry: CheckStore reports "orphaned inode 46 (name="dst"
// parent=1)". The fence refuses the relink instead (store.ErrFenced), the
// mv answers a transport-class failure, and the store holds exactly the
// survivor's two writes on the unmoved tree.
func TestFailoverFencesZombieRelink(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fc := newFailoverCluster(t, clk)
		m := fc.buildTree(t, 6, 6)

		commits := 0
		var locksBefore, locksAfter int
		survivor := func(op namespace.OpType, path string) {
			t.Helper()
			if resp := fc.b.Execute(namespace.Request{Op: op, Path: path}); !resp.OK() {
				t.Errorf("survivor %v %s inside the window: %s", op, path, resp.Err)
			}
			if err := m.Apply(op, path, ""); err != nil {
				t.Errorf("oracle %v %s: %v", op, path, err)
			}
		}
		fc.setOnCommit(func(owner string) error {
			if owner != "nn-0" {
				return nil
			}
			if commits++; commits == 2 { // commit 1 registered the subtree lock
				locksBefore = fc.db.HeldLocks()
				fc.sessions[0].Crash()
				locksAfter = fc.db.HeldLocks()
				survivor(namespace.OpCreate, "/big/d0/late")
				survivor(namespace.OpMkdirs, "/dst")
			}
			return nil // the hook refuses nothing: only the fence can
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if commits < 2 {
			t.Fatalf("nn-0 reached %d commits, want the lock and the relink", commits)
		}
		if locksBefore == 0 || locksAfter != 0 {
			t.Errorf("row locks around the crash: %d before, %d after; want some, then none", locksBefore, locksAfter)
		}
		if !errors.Is(resp.Error(), namespace.ErrUnavailable) {
			t.Errorf("mv on the fenced NameNode: %v, want %v", resp.Error(), namespace.ErrUnavailable)
		}
		if bad := CheckStore(fc.db, nil); len(bad) != 0 {
			t.Fatalf("store after the fenced relink: %v", bad)
		}
		if bad := CheckOracle(fc.db, m); len(bad) != 0 {
			t.Fatalf("namespace after the fenced relink: %v", bad)
		}
	})
}
