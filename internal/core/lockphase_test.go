package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/workload"
)

// TestWriteLockPhaseIsOneStoreRead pins the store round trips of every
// write's lock phase: one LockPaths call, so one ndb read and one resolve
// hop, whatever the operation locks — a leaf mkdirs too, and what an
// existing name answers — and one more for a deep mkdirs, whose first lock
// phase finds where the path goes missing. A directory delete or mv locks
// twice: the transaction that flags the subtree and, after the subtree
// protocol (whose walk and batches are the rest of its reads), the one that
// deletes or relinks the root.
func TestWriteLockPhaseIsOneStoreRead(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/p/q", "")
		mustOK(t, e, namespace.OpMkdirs, "/r", "")
		mustOK(t, e, namespace.OpCreate, "/r/warm", "")

		// Every row succeeds but this one.
		fails := map[string]error{"mkdirs over a file": namespace.ErrExists}
		for _, c := range []struct {
			name        string
			op          namespace.OpType
			path, dest  string
			reads, hops uint64
		}{
			{"create", namespace.OpCreate, "/p/q/f", "", 1, 1},
			{"mv same parent", namespace.OpMv, "/p/q/f", "/p/q/g", 1, 1},
			{"mv cross parent", namespace.OpMv, "/p/q/g", "/r/h", 1, 1},
			{"delete", namespace.OpDelete, "/r/h", "", 1, 1},
			{"mkdirs three missing", namespace.OpMkdirs, "/p/q/x/y/z", "", 2, 2},
			{"mkdirs leaf", namespace.OpMkdirs, "/p/q/leaf", "", 1, 1},
			{"mkdirs existing dir", namespace.OpMkdirs, "/p/q", "", 1, 1},
			{"mkdirs over a file", namespace.OpMkdirs, "/r/warm", "", 1, 1},
			{"mv directory", namespace.OpMv, "/p/q/x", "/r/x", 4, 2},   // + the walk, + one quiesce batch
			{"delete directory", namespace.OpDelete, "/r/x", "", 3, 2}, // + the walk
		} {
			before := st.Stats()
			if resp := do(t, e, c.op, c.path, c.dest); !errors.Is(resp.Error(), fails[c.name]) {
				t.Fatalf("%s: err=%v, want %v", c.name, resp.Error(), fails[c.name])
			}
			after := st.Stats()
			if got := after.Reads - before.Reads; got != c.reads {
				t.Errorf("%s: %d store reads, want %d", c.name, got, c.reads)
			}
			if got := after.ResolveHops - before.ResolveHops; got != c.hops {
				t.Errorf("%s: %d resolve hops, want %d", c.name, got, c.hops)
			}
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}

// TestCreateIsOneTransaction: a create commits its one transaction and
// reads the store as often whether it is the engine's first or a later one
// — no other transaction rides on it.
func TestCreateIsOneTransaction(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/d", "")
		var reads [2]uint64
		for i, path := range []string{"/d/first", "/d/later"} {
			before := st.Stats()
			mustOK(t, e, namespace.OpCreate, path, "")
			after := st.Stats()
			if got := after.Commits - before.Commits; got != 1 {
				t.Errorf("create %s: %d commits, want 1", path, got)
			}
			reads[i] = after.Reads - before.Reads
		}
		if reads[0] != reads[1] {
			t.Errorf("the first create read the store %d times, a later one %d", reads[0], reads[1])
		}
	})
}

// TestLsMissIsOneStoreRead pins the store round trips of a listing miss:
// chain and children come back in one fused multi-get — one read, one
// resolve hop, one batched resolve — whether ls fills the cache (shared
// locks), passes through (none) or names a file; and the virtual cost is
// the round trip plus the read batches of the busiest shard, the
// directory's children riding on the directory's own shard.
func TestLsMissIsOneStoreRead(t *testing.T) {
	clk := simtest.New(t)
	ncfg := ndb.DefaultConfig() // 4 shards, 64 rows a batch
	db := ndb.New(clk, ncfg)
	ring := partition.NewRing(4, 0)
	dirs := []string{"/p", "/p/d16", "/p/d100", "/p/through"}
	var files []string
	for _, c := range []struct {
		dir string
		n   int
	}{{"/p/d16", 16}, {"/p/d100", 100}, {"/p/through", 100}} {
		for i := 0; i < c.n; i++ {
			files = append(files, fmt.Sprintf("%s/f%03d", c.dir, i))
		}
	}
	workload.PreloadNDB(db, dirs, files)
	ecfg := DefaultEngineConfig()
	ecfg.OpCPUCost = 0
	engine := func(dep int) *Engine {
		return NewEngine(fmt.Sprintf("nn-%d", dep), dep, clk, db, ring, nil, nil, ecfg)
	}
	// The chain is at most 4 rows, so the directory's shard serves its
	// children plus 1 to 4 rows: one batch up to 60 children, two from 64 to
	// 124, wherever the rows hash.
	one, two := ncfg.RTT+ncfg.ReadService, ncfg.RTT+2*ncfg.ReadService
	for _, c := range []struct {
		name, path string
		dep        int
		entries    int
		want       time.Duration
	}{
		{"16 children", "/p/d16", ring.Route(namespace.OpLs, "/p/d16"), 16, one},
		{"100 children", "/p/d100", ring.Route(namespace.OpLs, "/p/d100"), 100, two},
		{"a file", "/p/d16/f000", ring.Route(namespace.OpLs, "/p/d16/f000"), 1, one},
		{"pass-through", "/p/through", (ring.Route(namespace.OpLs, "/p/through") + 1) % 4, 100, two},
	} {
		e := engine(c.dep) // a cold cache each
		before := db.Stats()
		var resp *namespace.Response
		var took time.Duration
		clock.Run(clk, func() {
			start := clk.Now()
			resp = e.Execute(namespace.Request{Op: namespace.OpLs, Path: c.path})
			took = clk.Since(start)
		})
		after := db.Stats()
		if !resp.OK() || resp.CacheHit || len(resp.Entries) != c.entries {
			t.Errorf("%s: ls %s = %d entries, hit=%v, err=%q; want a miss with %d", c.name, c.path,
				len(resp.Entries), resp.CacheHit, resp.Err, c.entries)
		}
		if r, h, b := after.Reads-before.Reads, after.ResolveHops-before.ResolveHops,
			after.BatchedResolves-before.BatchedResolves; r != 1 || h != 1 || b != 1 {
			t.Errorf("%s: %d store reads, %d resolve hops, %d batched resolves; want 1 each", c.name, r, h, b)
		}
		if took != c.want {
			t.Errorf("%s: took %v of virtual time, want %v", c.name, took, c.want)
		}
		if cached := e.Cache().IsComplete(c.path); cached != (c.name == "16 children" || c.name == "100 children") {
			t.Errorf("%s: listing cached complete = %v", c.name, cached)
		}
	}
	if db.HeldLocks() != 0 {
		t.Fatalf("locks leaked: %d", db.HeldLocks())
	}
}

// TestDirectoryDispatchUnderLock: del and mv learn what the path names
// from the rows they locked and, finding a directory, flag it for the
// subtree protocol in that same transaction — also when a file was replaced
// by a directory after the operation chose its rows (it used to answer
// ErrInvalidState).
func TestDirectoryDispatchUnderLock(t *testing.T) {
	t.Run("plain directory", func(t *testing.T) {
		simtest.Run(t, func(clk *clock.Sim) {
			e, st := soloEngine(clk)
			mustOK(t, e, namespace.OpMkdirs, "/d/sub", "")
			mustOK(t, e, namespace.OpCreate, "/d/sub/f", "")
			mustOK(t, e, namespace.OpMv, "/d", "/e")
			mustOK(t, e, namespace.OpStat, "/e/sub/f", "")
			mustOK(t, e, namespace.OpDelete, "/e", "")
			if st.INodeCount() != 1 {
				t.Fatalf("inodes left: %d", st.INodeCount())
			}
		})
	})
	for _, op := range []namespace.OpType{namespace.OpDelete, namespace.OpMv} {
		op := op
		t.Run(fmt.Sprintf("file replaced by directory during %v", op), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				e, st := soloEngine(clk)
				mustOK(t, e, namespace.OpMkdirs, "/d", "")
				mustOK(t, e, namespace.OpMkdirs, "/e", "")
				mustOK(t, e, namespace.OpCreate, "/d/x", "")
				mustOK(t, e, namespace.OpStat, "/d/x", "") // cached as a file: no cache entry may decide the route

				// The blocker owns /d/x's whole row set, so the operation picks
				// its rows (x is a file) and then parks behind /d.
				blocker := st.Begin("blocker")
				locked, err := blocker.LockPath("/d/x")
				if err != nil {
					t.Fatal(err)
				}
				held := st.HeldLocks()
				var resp *namespace.Response
				inFlight := clock.NewGroup(clk)
				inFlight.Go(func() { resp = e.Execute(namespace.Request{Op: op, Path: "/d/x", Dest: "/e/moved"}) })
				clk.Sleep(time.Millisecond) // it has run as far as it can: past the peek, into its lock phase
				if st.HeldLocks() == held {
					t.Fatal("operation never reached its lock phase")
				}
				dir := &namespace.INode{ID: st.NextID(), ParentID: locked.Target.ParentID, Name: "x", IsDir: true}
				if err := blocker.DeleteINode(locked.Target.ID); err != nil {
					t.Fatal(err)
				}
				if err := blocker.PutINode(dir); err != nil {
					t.Fatal(err)
				}
				if err := blocker.Commit(); err != nil {
					t.Fatal(err)
				}

				if inFlight.Wait(); !resp.OK() {
					t.Fatalf("%v of a file replaced by a directory: %s", op, resp.Err)
				}
				wantErr(t, e, namespace.OpStat, "/d/x", "", namespace.ErrNotFound)
				if op == namespace.OpMv {
					if resp := mustOK(t, e, namespace.OpStat, "/e/moved", ""); resp.ID != dir.ID || !resp.Stat.IsDir {
						t.Fatalf("moved = %+v, want directory %d", resp.Stat, dir.ID)
					}
				}
				if st.HeldLocks() != 0 {
					t.Fatalf("locks leaked: %d", st.HeldLocks())
				}
			})
		})
	}
}

// simOp is one request of a concurrent round and the error it must answer
// (nil: it must succeed).
type simOp struct {
	op         namespace.OpType
	path, dest string
	want       error
}

// runSimRounds builds a two-engine deployment on a fresh clock.Sim, runs
// setup once, then for each round starts that round's ops on the same
// virtual tick (alternating engines) and waits for them all. Afterwards no
// lock wait may have timed out — a timeout is how a lock-order inversion
// shows — the store must be intact and no lock may be left held.
func runSimRounds(t *testing.T, rounds int, setup, ops func(r int) []simOp) {
	t.Helper()
	clk := simtest.New(t)
	var db *ndb.DB
	var engines [2]*Engine
	// The ops run on simulation goroutines, so failures are t.Error, not t.Fatal.
	exec := func(e *Engine, o simOp) {
		resp := e.Execute(namespace.Request{Op: o.op, Path: o.path, Dest: o.dest})
		if !errors.Is(resp.Error(), o.want) {
			t.Errorf("%v %s %s: err=%v, want %v", o.op, o.path, o.dest, resp.Error(), o.want)
		}
	}
	clock.Run(clk, func() {
		db = ndb.New(clk, ndb.DefaultConfig())
		ccfg := coordinator.DefaultConfig()
		ccfg.OnCrash = func(id string) { CleanupCrashedNameNode(db, id) }
		zk := coordinator.NewZK(clk, ccfg)
		ring := partition.NewRing(1, 0)
		for i := range engines {
			id := fmt.Sprintf("nn-%d", i)
			engines[i] = NewEngine(id, 0, clk, db, ring, zk, nil, DefaultEngineConfig())
			zk.Register(0, id, engines[i].HandleInvalidation)
		}
		for r := 0; r < rounds; r++ {
			for _, o := range setup(r) {
				exec(engines[0], o)
			}
		}
	})
	clock.Run(clk, func() {
		for r := 0; r < rounds; r++ {
			g := clock.NewGroup(clk)
			for i, o := range ops(r) {
				e, o := engines[i%2], o
				g.Go(func() { exec(e, o) })
			}
			g.Wait()
		}
	})
	if n := db.Stats().LockTimeouts; n != 0 {
		t.Fatalf("%d lock-wait timeouts: concurrent writes deadlocked", n)
	}
	if bad := db.CheckIntegrity(); len(bad) != 0 {
		t.Fatalf("store integrity: %v", bad)
	}
	if db.HeldLocks() != 0 {
		t.Fatalf("locks leaked: %d", db.HeldLocks())
	}
}

// TestCrossingMovesTakeOneLockOrder runs crossing renames between two
// directories in virtual time: directory moves /a→/b and /b→/a beside
// file moves both ways, all starting on the same tick. A directory
// rename's relink used to lock destination parent then source parent
// whatever their order, so crossing pairs deadlocked until the lock-wait
// timeout fired; every rename now locks through one sorted LockPaths call.
func TestCrossingMovesTakeOneLockOrder(t *testing.T) {
	name := func(format string, r int) string { return fmt.Sprintf(format, r) }
	runSimRounds(t, 6, func(r int) []simOp {
		return []simOp{
			{op: namespace.OpMkdirs, path: name("/a/x%d/sub", r)},
			{op: namespace.OpMkdirs, path: name("/b/y%d/sub", r)},
			{op: namespace.OpCreate, path: name("/a/f%d", r)},
			{op: namespace.OpCreate, path: name("/b/g%d", r)},
		}
	}, func(r int) []simOp {
		return []simOp{
			{op: namespace.OpMv, path: name("/a/x%d", r), dest: name("/b/x%d", r)},
			{op: namespace.OpMv, path: name("/b/y%d", r), dest: name("/a/y%d", r)},
			{op: namespace.OpMv, path: name("/a/f%d", r), dest: name("/b/f%d", r)},
			{op: namespace.OpMv, path: name("/b/g%d", r), dest: name("/a/g%d", r)},
		}
	})
}

// TestMovesBetweenDirectoryAndSubdirectory: renames between /a and /a/b,
// files and directories, both directions, plus a rename onto the source's
// own parent directory (answered ErrExists, after the same lock phase),
// beside creates in /a and /a/b on the same tick. Row a is an ancestor on
// one path of such a rename and the parent on the other; it has to be
// taken slot first, as a create in /a takes it, whichever path is walked
// first.
func TestMovesBetweenDirectoryAndSubdirectory(t *testing.T) {
	name := func(format string, r int) string { return fmt.Sprintf(format, r) }
	runSimRounds(t, 6, func(r int) []simOp {
		return []simOp{
			{op: namespace.OpMkdirs, path: name("/a/b/d%d/sub", r)},
			{op: namespace.OpMkdirs, path: name("/a/e%d/sub", r)},
			{op: namespace.OpCreate, path: name("/a/b/x%d", r)},
			{op: namespace.OpCreate, path: name("/a/b/z%d", r)},
			{op: namespace.OpCreate, path: name("/a/y%d", r)},
		}
	}, func(r int) []simOp {
		return []simOp{
			{op: namespace.OpMv, path: name("/a/b/x%d", r), dest: name("/a/up%d", r)},
			{op: namespace.OpCreate, path: name("/a/c%d", r)},
			{op: namespace.OpMv, path: name("/a/y%d", r), dest: name("/a/b/down%d", r)},
			{op: namespace.OpCreate, path: name("/a/b/c%d", r)},
			{op: namespace.OpMv, path: name("/a/b/d%d", r), dest: name("/a/dup%d", r)},
			{op: namespace.OpMv, path: name("/a/e%d", r), dest: name("/a/b/edown%d", r)},
			{op: namespace.OpMv, path: name("/a/b/z%d", r), dest: "/a/b", want: namespace.ErrExists},
			{op: namespace.OpCreate, path: name("/a/c%d-2", r)},
		}
	})
}
