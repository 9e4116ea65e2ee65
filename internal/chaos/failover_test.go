package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
)

// failoverCluster is a two-NameNode λFS cluster whose store commit path
// can be intercepted per-owner, so tests can kill the leader at an exact
// point inside a subtree operation.
type failoverCluster struct {
	db *ndb.DB
	zk *coordinator.ZK
	a  *core.Engine // initial leader
	b  *core.Engine // successor

	mu       sync.Mutex
	onCommit func(owner string) error
}

func newFailoverCluster(t *testing.T, clk *clock.Sim) *failoverCluster {
	t.Helper()
	fc := &failoverCluster{}

	ncfg := ndb.DefaultConfig()
	ncfg.RTT, ncfg.ReadService, ncfg.WriteService = 0, 0, 0
	ncfg.LockWaitTimeout = 150 * time.Millisecond
	ncfg.OnCommit = func(owner string) error {
		fc.mu.Lock()
		h := fc.onCommit
		fc.mu.Unlock()
		if h != nil {
			return h(owner)
		}
		return nil
	}
	fc.db = ndb.New(clk, ncfg)

	ccfg := coordinator.DefaultConfig()
	ccfg.HopLatency = 0
	ccfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(fc.db, id) }
	fc.zk = coordinator.NewZK(clk, ccfg)

	ring := partition.NewRing(1, 0)
	ecfg := core.DefaultEngineConfig()
	ecfg.OpCPUCost = 0
	ecfg.SubtreeCPUPerINode = 0
	mk := func(id string) *core.Engine {
		e := core.NewEngine(id, 0, clk, fc.db, ring, fc.zk, nil, ecfg)
		fc.zk.Register(0, id, e.HandleInvalidation)
		fc.zk.TryLead(LeaderGroup, id)
		return e
	}
	fc.a = mk("nn-a")
	fc.b = mk("nn-b")
	if got := fc.zk.Leader(LeaderGroup); got != "nn-a" {
		t.Fatalf("initial leader = %q, want nn-a", got)
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
	// The lease expired: nn-a is no longer a member…
	for _, id := range fc.zk.Members(0) {
		if id == "nn-a" {
			t.Fatal("nn-a still a coordinator member after lease expiry")
		}
	}
	// …and leadership passed to nn-b.
	if got := fc.zk.Leader(LeaderGroup); got != "nn-b" {
		t.Fatalf("leader after failover = %q, want nn-b", got)
	}

	// All-or-nothing: the subtree lives at exactly one of src/dst, whole.
	want := NewOracle()
	for _, p := range m.Paths() {
		if p == "/" {
			continue
		}
		if m.IsDir(p) {
			want.dirs[p] = true
		} else {
			want.files[p] = true
		}
	}
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
			if owner != "nn-a" {
				return nil
			}
			commits++
			if commits == 2 {
				// Commit 1 was the subtree-lock registration; commit 2 is the
				// final relink. Expire the leader's session now — cleanup for
				// the "crashed" NameNode runs synchronously, racing the
				// still-in-flight mv exactly as a watch firing would.
				if !fc.zk.ExpireSession("nn-a") {
					t.Error("ExpireSession(nn-a) found no session")
				}
			}
			return nil
		})
		resp := fc.a.Execute(namespace.Request{Op: namespace.OpMv, Path: "/big", Dest: "/dst"})
		fc.setOnCommit(nil)
		if commits < 2 {
			t.Fatalf("mv committed %d times for nn-a, expected the lock + relink pair", commits)
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
			if owner != "nn-a" || fired {
				return nil
			}
			fired = true
			if !fc.zk.ExpireSession("nn-a") {
				t.Error("ExpireSession(nn-a) found no session")
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
			if owner == "nn-a" && !flapped {
				flapped = true
				if got := fc.zk.Depose(LeaderGroup); got != "nn-b" {
					t.Errorf("Depose -> %q, want nn-b", got)
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
		if got := fc.zk.Leader(LeaderGroup); got != "nn-b" {
			t.Fatalf("leader = %q, want nn-b", got)
		}
		// Old leader is still a live member (no session loss) and re-queued.
		found := false
		for _, id := range fc.zk.Members(0) {
			if id == "nn-a" {
				found = true
			}
		}
		if !found {
			t.Fatal("nn-a lost its session during a flap")
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
