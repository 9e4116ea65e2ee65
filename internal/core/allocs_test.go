//go:build !race

package core

import (
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// A cache hit copies no INode: what a hit allocates is fixed by the path's
// depth and, for a read, the block list the reply carries out. (Not under
// -race: the detector allocates.)
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
		// Lookup's chain, the StatInfo and the Response (a canonical path cleans
		// for free); a read adds the reply's block list and its location list.
		// A read carrying a ClientID and a fresh Seq costs the same, and leaves
		// nothing behind: only writes enter the result cache. (Keeping the reply
		// would not show as a count here: the FIFO's growth is amortized below
		// one allocation per run.)
		var seq uint64 // fresh across both ops: the key is ClientID and Seq
		for op, want := range map[namespace.OpType]float64{namespace.OpStat: 3, namespace.OpRead: 5} {
			req := namespace.Request{Op: op, Path: "/a/b/f"}
			e.Execute(req) // the fill
			if resp := e.Execute(req); !resp.OK() || !resp.CacheHit || len(resp.Blocks) != int(want-3)/2 {
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

// A stat the cache does not serve, through Engine.Execute: the StatInfo and
// the Response, and the store resolution's chain. A miss adds the
// transaction its shared-locked fill runs in, and re-caches the row in the
// node its invalidation freed; a pass-through resolution (caching disabled)
// takes no lock and so needs no transaction. (Not under -race: the
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
		if got := testing.AllocsPerRun(100, miss); got != 4 {
			t.Errorf("cache-miss stat of a depth-3 path: %v allocs, want 4", got)
		}

		cfg := DefaultEngineConfig()
		cfg.OpCPUCost, cfg.SubtreeCPUPerINode, cfg.CacheBudget = 0, 0, -1
		pass := NewEngine("nn-pass", -1, clk, st, nil, nil, nil, cfg)
		if got := testing.AllocsPerRun(100, func() { pass.Execute(stat) }); got != 3 {
			t.Errorf("pass-through stat of a depth-3 path: %v allocs, want 3", got)
		}
	})
}

// A warm write's host cost, through Engine.Execute. Per op: the
// transaction, its write buffer (a map and its first group), the lock
// phase's argument list, reply and the one array behind its chains, a
// private copy of each exclusive row the walks read (the parent, once per
// path; a delete's or a mv's target), the row a create builds, a mv's INV
// targets and the response. Each written row is that one new version — the
// store takes over the row built or the private copy handed out, copying
// neither and no block list — and the commit builds no record or frame of
// its own. (Not under -race: the detector allocates.)
func TestExecuteWriteAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f", "")
		create := namespace.Request{Op: namespace.OpCreate, Path: "/a/b/h"}
		del := namespace.Request{Op: namespace.OpDelete, Path: "/a/b/h"}
		there := namespace.Request{Op: namespace.OpMv, Path: "/a/b/f", Dest: "/a/b/g"}
		back := namespace.Request{Op: namespace.OpMv, Path: "/a/b/g", Dest: "/a/b/f"}
		run := func(reqs ...namespace.Request) func() {
			return func() {
				for _, req := range reqs {
					if resp := e.Execute(req); !resp.OK() {
						t.Fatalf("%v %s: %s", req.Op, req.Path, resp.Err)
					}
				}
			}
		}
		for _, c := range []struct {
			what string
			reqs []namespace.Request
			want float64
		}{
			{"create and delete of a depth-3 file", []namespace.Request{create, del}, 20},
			{"a file mv inside a directory and back", []namespace.Request{there, back}, 22},
		} {
			run(c.reqs...)() // warm: the lock table and the store's scratch
			if got := testing.AllocsPerRun(100, run(c.reqs...)); got != c.want {
				t.Errorf("%s: %v allocs, want %v", c.what, got, c.want)
			}
		}
	})
}
