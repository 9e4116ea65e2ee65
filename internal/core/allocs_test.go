//go:build !race

package core

import (
	"runtime"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// A cache hit copies no INode and allocates its reply alone: the chain is
// on the stack, and the reply is one object holding the Response, its
// StatInfo and, for a read, the private copy of a one-block list. (Not
// under -race: the detector allocates.)
func TestExecuteHitAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		tx := st.Begin("seed") // a DataNode, so the file gets a block with a location
		if err := tx.KVPut(store.TableDataNodes, "dn1", []byte(`{"ID":"dn1","Timestamp":"2023-03-25T00:00:00Z"}`)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f", "")
		// The reply, and nothing else: Lookup writes the chain into the
		// caller's stack buffer, and a canonical path cleans for free. A read
		// carrying a ClientID and a fresh Seq costs the same, and leaves
		// nothing behind: only writes enter the result cache. (Keeping the
		// reply would not show as a count here: the FIFO's growth is amortized
		// below one allocation per run.)
		var seq uint64 // fresh across both ops: the key is ClientID and Seq
		for op, blocks := range map[namespace.OpType]int{namespace.OpStat: 0, namespace.OpRead: 1} {
			const want = 1
			req := namespace.Request{Op: op, Path: "/a/b/f"}
			e.Execute(req) // the fill
			if resp := e.Execute(req); !resp.OK() || !resp.CacheHit || len(resp.Blocks) != blocks {
				t.Fatalf("%v /a/b/f does not hit, or not with the blocks expected: %+v", op, resp)
			}
			if got := testing.AllocsPerRun(100, func() { e.Execute(req) }); got != want {
				t.Errorf("%v hit of a depth-3 path: %v allocs, want %v", op, got, want)
			}
			tagged := namespace.Request{Op: op, Path: "/a/b/f", ClientID: "c1"}
			if got := testing.AllocsPerRun(100, func() { seq++; tagged.Seq = seq; e.Execute(tagged) }); got != want {
				t.Errorf("%v hit of a depth-3 path with ClientID and a fresh Seq: %v allocs, want %v", op, got, want)
			}
		}
		if n := e.results.len(); n != 0 {
			t.Errorf("the result cache kept %d read replies", n)
		}
	})
}

// A stat the cache does not serve, through Engine.Execute: the reply (the
// Response and its StatInfo, one object) and one more. A miss's is the
// transaction its shared-locked fill runs in, whose inline buffer holds the
// chain, and it re-caches the row in the node its invalidation freed; a
// pass-through resolution (caching disabled) takes no lock and so needs no
// transaction, and its one more is the chain. (Not under -race: the
// detector allocates.)
func TestExecuteMissAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		stat := namespace.Request{Op: namespace.OpStat, Path: "/a/b/f"}
		e, st := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f", "")
		miss := func() {
			e.Cache().Invalidate(stat.Path)
			if resp := e.Execute(stat); !resp.OK() || resp.CacheHit {
				t.Fatalf("stat %s: %+v, want a miss", stat.Path, resp)
			}
		}
		miss()
		if got := testing.AllocsPerRun(100, miss); got != 2 {
			t.Errorf("cache-miss stat of a depth-3 path: %v allocs, want 2", got)
		}

		cfg := DefaultEngineConfig()
		cfg.OpCPUCost, cfg.SubtreeCPUPerINode, cfg.CacheBudget = 0, 0, -1
		pass := NewEngine("nn-pass", -1, clk, st, nil, nil, nil, cfg)
		if got := testing.AllocsPerRun(100, func() { pass.Execute(stat) }); got != 2 {
			t.Errorf("pass-through stat of a depth-3 path: %v allocs, want 2", got)
		}
	})
}

// writerEngine is the one engine of a one-deployment fleet: it owns every
// path, so each write's INV round has no member but the writer — the
// shape of every deployment that serves a benchmark workload.
func writerEngine(clk *clock.Sim) *Engine {
	st := fastStore(clk)
	zk := fastCoord(clk, st)
	cfg := DefaultEngineConfig()
	cfg.OpCPUCost, cfg.SubtreeCPUPerINode = 0, 0
	e := NewEngine("nn-w", 0, clk, st, partition.NewRing(1, 0), zk, nil, cfg)
	zk.Register(0, e.ID(), e.HandleInvalidation)
	return e
}

// opAllocs is testing.AllocsPerRun for op alone: before each run, prep
// readies what op acts on, uncounted, and the first run warms up, uncounted
// too. Like AllocsPerRun it truncates the mean, so a map's amortized growth
// does not show.
func opAllocs(prep, op func()) float64 {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prep()
	op()
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		prep()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	return float64(mallocs / runs)
}

// A warm write's host cost, through Engine.Execute, one pin per op kind.
// Every write pays three things: the transaction, the lock phase's argument
// list and the response. Then one private copy of each exclusive row its
// walks read: the parent, once per path, and a delete's or a mv's target.
//   - create 5: the three, the parent's copy and the row it builds;
//   - delete 5: the three and the target's and the parent's copies;
//   - mv inside a directory 6: the three, the target's copy and the
//     parent's copy once per path;
//   - mv across directories 6: the three and three copies;
//   - leaf mkdirs 10: the three, the parent's copy, the directory it
//     builds and that directory's child table in the store, the component
//     list it splits and the three paths it joins on the way down.
//
// Nothing else: the write set, the lock phase's reply and chains, its lock
// set (up to 16 rows: a rename's fits), the INV round's targets and batch
// and, on a contended row, the lock waiter are reused (the transaction's
// inline buffers, the engine's free list, the lock table's). Each written row is that one new version — the store takes
// over the row built or the private copy handed out, copying neither and no
// block list — and the commit builds no record or frame of its own. (Not
// under -race: the detector allocates.)
func TestExecuteWriteAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e := writerEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpMkdirs, "/a/c", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/x", "")
		exec := func(op namespace.OpType, path, dest string) func() {
			req := namespace.Request{Op: op, Path: path, Dest: dest}
			return func() {
				if resp := e.Execute(req); !resp.OK() {
					t.Fatalf("%v %s: %s", op, path, resp.Err)
				}
			}
		}
		// settle readies a row for the op measured; it may find it ready.
		settle := func(op namespace.OpType, path, dest string) func() {
			req := namespace.Request{Op: op, Path: path, Dest: dest}
			return func() { e.Execute(req) }
		}
		for _, c := range []struct {
			what     string
			prep, op func()
			want     float64
		}{
			{"create of a depth-3 file", settle(namespace.OpDelete, "/a/b/h", ""), exec(namespace.OpCreate, "/a/b/h", ""), 5},
			{"delete of a depth-3 file", settle(namespace.OpCreate, "/a/b/h", ""), exec(namespace.OpDelete, "/a/b/h", ""), 5},
			{"a file mv inside a directory", settle(namespace.OpMv, "/a/b/g", "/a/b/f"), exec(namespace.OpMv, "/a/b/f", "/a/b/g"), 6},
			{"a file mv across directories", settle(namespace.OpMv, "/a/c/x", "/a/b/x"), exec(namespace.OpMv, "/a/b/x", "/a/c/x"), 6},
			{"a leaf mkdirs at depth 3", settle(namespace.OpDelete, "/a/b/d", ""), exec(namespace.OpMkdirs, "/a/b/d", ""), 10},
		} {
			if got := opAllocs(c.prep, c.op); got != c.want {
				t.Errorf("%s: %v allocs, want %v", c.what, got, c.want)
			}
		}
	})
}
