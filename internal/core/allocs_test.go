//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// A cache hit copies no INode and allocates nothing: the chain is on the
// stack, and the reply — the Response, its StatInfo and, for a read, the
// private copy of a one-block list — is written into the request's reply
// storage, as an rpc client's call record provides it. A request without
// storage pays one object, the fresh storage. (Not under -race: the
// detector allocates.)
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
		// Nothing: Lookup writes the chain into the caller's stack buffer, a
		// canonical path cleans for free, and the reply lands in the
		// request's storage. A read carrying a ClientID and a fresh Seq costs
		// the same, and leaves nothing behind: only writes enter the result
		// cache. (Keeping the reply would not show as a count here: the
		// FIFO's growth is amortized below one allocation per run.)
		var seq uint64 // fresh across both ops: the key is ClientID and Seq
		for op, blocks := range map[namespace.OpType]int{namespace.OpStat: 0, namespace.OpRead: 1} {
			req := namespace.Request{Op: op, Path: "/a/b/f", Reply: new(namespace.Reply)}
			e.Execute(req) // the fill
			if resp := e.Execute(req); !resp.OK() || !resp.CacheHit || len(resp.Blocks) != blocks || resp != &req.Reply.Response {
				t.Fatalf("%v /a/b/f does not hit, or not with the blocks expected, or not into its storage: %+v", op, resp)
			}
			if got := testing.AllocsPerRun(100, func() { e.Execute(req) }); got != 0 {
				t.Errorf("%v hit of a depth-3 path: %v allocs, want 0", op, got)
			}
			tagged := namespace.Request{Op: op, Path: "/a/b/f", ClientID: "c1", Reply: req.Reply}
			if got := testing.AllocsPerRun(100, func() { seq++; tagged.Seq = seq; e.Execute(tagged) }); got != 0 {
				t.Errorf("%v hit of a depth-3 path with ClientID and a fresh Seq: %v allocs, want 0", op, got)
			}
			bare := namespace.Request{Op: op, Path: "/a/b/f"}
			if got := testing.AllocsPerRun(100, func() { e.Execute(bare) }); got != 1 {
				t.Errorf("%v hit of a depth-3 path without reply storage: %v allocs, want 1 (the fresh storage)", op, got)
			}
		}
		if n := e.results.len(); n != 0 {
			t.Errorf("the result cache kept %d read replies", n)
		}
	})
}

// A stat the cache does not serve, through Engine.Execute into the
// request's reply storage: nothing, and for a pass-through one object. A
// miss's shared-locked fill runs in a transaction the store recycles
// (store.Store.Release), the chain is copied from its inline buffer into the
// caller's stack buffer, and the fill re-caches the row in the node its
// invalidation freed; a pass-through resolution (caching disabled) takes no
// lock and so needs no transaction, and its one object is the chain. (Not
// under -race: the detector allocates.)
func TestExecuteMissAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		stat := namespace.Request{Op: namespace.OpStat, Path: "/a/b/f", Reply: new(namespace.Reply)}
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
		if got := testing.AllocsPerRun(100, miss); got != 0 {
			t.Errorf("cache-miss stat of a depth-3 path: %v allocs, want 0", got)
		}

		cfg := DefaultEngineConfig()
		cfg.OpCPUCost, cfg.SubtreeCPUPerINode, cfg.CacheBudget = 0, 0, -1
		pass := NewEngine("nn-pass", -1, clk, st, nil, nil, nil, cfg)
		if got := testing.AllocsPerRun(100, func() { pass.Execute(stat) }); got != 1 {
			t.Errorf("pass-through stat of a depth-3 path: %v allocs, want 1", got)
		}
	})
}

// An ls, of a directory hit or miss or of a file, allocates nothing: its
// reply and entries are written into the request's reply storage, whose
// room for entries grew to the listing on the first call. A hit walks the
// cached children, which are kept in name order, so nothing sorts, and
// writes their entries into the room under the cache's lock. A miss — a
// child's INV made the listing unknown — lists the directory into storage
// its recycled transaction keeps, and the fill re-caches the children in
// the nodes and child list the cache already holds or recycled. A request
// without storage pays two objects, the fresh storage and its room. (Not
// under -race: the detector allocates.)
func TestExecuteLsAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		for i := 0; i < 64; i++ {
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/a/b/f%02d", i), "")
		}
		ls := namespace.Request{Op: namespace.OpLs, Path: "/a/b", Reply: new(namespace.Reply)}
		e.Execute(ls) // the fill
		if resp := e.Execute(ls); !resp.OK() || !resp.CacheHit || len(resp.Entries) != 64 || resp.Entries[0].Name != "f00" || resp != &ls.Reply.Response {
			t.Fatalf("ls /a/b does not hit with its 64 entries in name order, into its storage: %+v", resp)
		}
		if got := testing.AllocsPerRun(100, func() { e.Execute(ls) }); got != 0 {
			t.Errorf("ls hit of a 64-entry directory: %v allocs, want 0 (reply and entries in the request's storage)", got)
		}
		miss := func() {
			e.Cache().Invalidate("/a/b/f17")
			if resp := e.Execute(ls); !resp.OK() || resp.CacheHit || len(resp.Entries) != 64 || resp.Entries[17].Name != "f17" {
				t.Fatalf("ls /a/b after an INV of /a/b/f17: %+v, want a miss with 64 entries in name order", resp)
			}
		}
		miss()
		if got := testing.AllocsPerRun(100, miss); got != 0 {
			t.Errorf("steady-state ls miss of a 64-entry directory: %v allocs, want 0 (reply and entries in the request's storage)", got)
		}
		bare := namespace.Request{Op: namespace.OpLs, Path: "/a/b"}
		if got := testing.AllocsPerRun(100, func() { e.Execute(bare) }); got != 2 {
			t.Errorf("ls hit of a 64-entry directory without reply storage: %v allocs, want 2 (the fresh storage and its room)", got)
		}
		file := namespace.Request{Op: namespace.OpLs, Path: "/a/b/f03", Reply: ls.Reply}
		if resp := e.Execute(file); !resp.OK() || resp.Stat == nil || len(resp.Entries) != 1 || resp.Entries[0].Name != "f03" || resp != &file.Reply.Response {
			t.Fatalf("ls /a/b/f03: %+v, want its stat and its one entry in the request's storage", resp)
		}
		if got := testing.AllocsPerRun(100, func() { e.Execute(file) }); got != 0 {
			t.Errorf("ls of a file: %v allocs, want 0 (its stat and entry in the request's storage)", got)
		}
	})
}

// A listing longer than namespace.ReplyEntries is written into room of
// its own, so every ls of it allocates that room, hit or miss, and the
// storage keeps none of it: a listing that fits the room it kept still
// allocates nothing afterwards. (Not under -race: the detector allocates.)
func TestLsPastReplyEntriesAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		const long = namespace.ReplyEntries + 44
		mustOK(t, e, namespace.OpMkdirs, "/big", "")
		for i := 0; i < long; i++ {
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/big/f%03d", i), "")
		}
		mustOK(t, e, namespace.OpMkdirs, "/small", "")
		for i := 0; i < 64; i++ {
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/small/f%02d", i), "")
		}
		r := new(namespace.Reply)
		big := namespace.Request{Op: namespace.OpLs, Path: "/big", Reply: r}
		small := namespace.Request{Op: namespace.OpLs, Path: "/small", Reply: r}
		e.Execute(small) // the fill, and the room a 64-entry listing keeps
		e.Execute(big)   // the fill
		last := fmt.Sprintf("f%03d", long-1)
		for _, hit := range []bool{true, false} {
			ls := func() {
				if !hit {
					e.Cache().Invalidate("/big/f100")
				}
				resp := e.Execute(big)
				if !resp.OK() || resp.CacheHit != hit || len(resp.Entries) != long || resp.Entries[long-1].Name != last {
					t.Fatalf("ls /big (hit %v): %+v, want its %d entries in name order", hit, resp, long)
				}
			}
			if got := testing.AllocsPerRun(100, ls); got != 1 {
				t.Errorf("ls of a %d-entry directory (hit %v): %v allocs, want 1 (its entries' own room)", long, hit, got)
			}
		}
		if got := testing.AllocsPerRun(100, func() { e.Execute(small) }); got != 0 {
			t.Errorf("ls hit of a 64-entry directory after the long listings: %v allocs, want 0", got)
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
// Every write pays one object per row version it publishes: a row it
// builds, or the Clone of a row its lock phase read, which is cloned once
// for a parent both paths of a rename share. The rows the store hands out
// are its own, so a delete's target, which is never published, costs
// nothing, and the reply lands in the request's reply storage.
//   - create 2: the parent's new version and the row it builds;
//   - delete 1: the parent's new version;
//   - mv inside a directory 2: the target's and the parent's new versions;
//   - mv across directories 3: three new versions;
//   - leaf mkdirs 2: the parent's new version and the directory it builds
//     (the new directory's child list in the store is nil until its first
//     child);
//   - create into a directory whose complete listing the writer caches 2,
//     as a plain create: the hook that resumes the listing at the commit
//     point is a resume off the engine's free list, its method value bound
//     once, and the transaction keeps its hook slice's room.
//
// Nothing else: the transaction is a spent one the store recycles
// (store.Store.Release), and its write set, the lock phase's chains and its
// lock set (up to 16 rows: a rename's fits) are its inline buffers; the
// lock phase's paths and reply are values, mkdirs splits its path into a
// stack buffer and takes each directory's path as a prefix of it, and the
// INV round's targets and batch and, on a contended row, the lock waiter
// are reused (the engine's free list, the lock table's). Each written row
// is that one new version — the store takes over the row built or cloned,
// copying neither and no block list — and the commit builds no record or
// frame of its own. (Not under -race: the
// detector allocates.)
func TestExecuteWriteAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e := writerEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpMkdirs, "/a/c", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/x", "")
		mustOK(t, e, namespace.OpMkdirs, "/a/l", "")
		mustOK(t, e, namespace.OpCreate, "/a/l/f", "")
		mustOK(t, e, namespace.OpLs, "/a/l", "") // the listing's fill: complete from here on
		// The one client's reply storage, reused write after write.
		reply := new(namespace.Reply)
		exec := func(op namespace.OpType, path, dest string) func() {
			req := namespace.Request{Op: op, Path: path, Dest: dest, Reply: reply}
			return func() {
				if resp := e.Execute(req); !resp.OK() {
					t.Fatalf("%v %s: %s", op, path, resp.Err)
				}
			}
		}
		// settle readies a row for the op measured; it may find it ready.
		settle := func(op namespace.OpType, path, dest string) func() {
			req := namespace.Request{Op: op, Path: path, Dest: dest, Reply: reply}
			return func() { e.Execute(req) }
		}
		for _, c := range []struct {
			what     string
			prep, op func()
			want     float64
		}{
			{"create of a depth-3 file", settle(namespace.OpDelete, "/a/b/h", ""), exec(namespace.OpCreate, "/a/b/h", ""), 2},
			{"delete of a depth-3 file", settle(namespace.OpCreate, "/a/b/h", ""), exec(namespace.OpDelete, "/a/b/h", ""), 1},
			{"a file mv inside a directory", settle(namespace.OpMv, "/a/b/g", "/a/b/f"), exec(namespace.OpMv, "/a/b/f", "/a/b/g"), 2},
			{"a file mv across directories", settle(namespace.OpMv, "/a/c/x", "/a/b/x"), exec(namespace.OpMv, "/a/b/x", "/a/c/x"), 3},
			{"a leaf mkdirs at depth 3", settle(namespace.OpDelete, "/a/b/d", ""), exec(namespace.OpMkdirs, "/a/b/d", ""), 2},
			{"create into a directory whose complete listing is cached", settle(namespace.OpDelete, "/a/l/h", ""), exec(namespace.OpCreate, "/a/l/h", ""), 2},
		} {
			if got := opAllocs(c.prep, c.op); got != c.want {
				t.Errorf("%s: %v allocs, want %v", c.what, got, c.want)
			}
		}
		if c := e.Cache(); !c.IsComplete("/a/l") || !c.Contains("/a/l/h") {
			t.Errorf("after the creates into /a/l: listing complete %v, /a/l/h cached %v; want both (each commit point resumed the listing)",
				c.IsComplete("/a/l"), c.Contains("/a/l/h"))
		}
	})
}
