package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

func fastStore(clk *clock.Sim) *ndb.DB {
	cfg := ndb.DefaultConfig()
	cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
	cfg.LockWaitTimeout = 150 * time.Millisecond
	return ndb.New(clk, cfg)
}

func fastCoord(clk *clock.Sim, st store.Store) *coordinator.ZK {
	cfg := coordinator.DefaultConfig()
	cfg.HopLatency = 0
	cfg.OnCrash = func(id string) { CleanupCrashedNameNode(st, id) }
	return coordinator.NewZK(clk, cfg)
}

// soloEngine is an unpartitioned engine with unlimited cache and no
// coherence peers — semantics-focused tests.
func soloEngine(clk *clock.Sim) (*Engine, *ndb.DB) {
	st := fastStore(clk)
	cfg := DefaultEngineConfig()
	cfg.OpCPUCost = 0
	cfg.SubtreeCPUPerINode = 0
	e := NewEngine("nn-solo", -1, clk, st, nil, nil, nil, cfg)
	return e, st
}

func do(t *testing.T, e *Engine, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	resp := e.Execute(namespace.Request{Op: op, Path: path, Dest: dest})
	return resp
}

func mustOK(t *testing.T, e *Engine, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	resp := do(t, e, op, path, dest)
	if !resp.OK() {
		t.Fatalf("%v %s: %s", op, path, resp.Err)
	}
	return resp
}

func wantErr(t *testing.T, e *Engine, op namespace.OpType, path, dest string, want error) {
	t.Helper()
	resp := do(t, e, op, path, dest)
	if !errors.Is(resp.Error(), want) {
		t.Fatalf("%v %s: err=%v, want %v", op, path, resp.Error(), want)
	}
}

func TestBasicSemantics(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/a/b", "")
		mustOK(t, e, namespace.OpCreate, "/a/b/f.txt", "")
		wantErr(t, e, namespace.OpCreate, "/a/b/f.txt", "", namespace.ErrExists)
		wantErr(t, e, namespace.OpCreate, "/a/b/f.txt/under-file", "", namespace.ErrNotDir)
		wantErr(t, e, namespace.OpStat, "/nope", "", namespace.ErrNotFound)

		st := mustOK(t, e, namespace.OpStat, "/a/b/f.txt", "")
		if st.Stat == nil || st.Stat.IsDir || st.Stat.Path != "/a/b/f.txt" {
			t.Fatalf("stat = %+v", st.Stat)
		}
		rd := mustOK(t, e, namespace.OpRead, "/a/b/f.txt", "")
		if rd.ID == namespace.InvalidID {
			t.Fatal("read returned no inode")
		}
		wantErr(t, e, namespace.OpRead, "/a/b", "", namespace.ErrIsDir)

		ls := mustOK(t, e, namespace.OpLs, "/a/b", "")
		if len(ls.Entries) != 1 || ls.Entries[0].Name != "f.txt" {
			t.Fatalf("ls = %+v", ls.Entries)
		}
		// ls of a file returns its own entry (HDFS style).
		lsf := mustOK(t, e, namespace.OpLs, "/a/b/f.txt", "")
		if len(lsf.Entries) != 1 || lsf.Entries[0].Name != "f.txt" {
			t.Fatalf("ls file = %+v", lsf.Entries)
		}
	})
}

func TestMkdirsIdempotentAndDeep(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		r1 := mustOK(t, e, namespace.OpMkdirs, "/x/y/z", "")
		r2 := mustOK(t, e, namespace.OpMkdirs, "/x/y/z", "")
		if r1.ID != r2.ID {
			t.Fatalf("mkdirs not idempotent: %d vs %d", r1.ID, r2.ID)
		}
		mustOK(t, e, namespace.OpMkdirs, "/", "")
		mustOK(t, e, namespace.OpCreate, "/x/f", "")
		wantErr(t, e, namespace.OpMkdirs, "/x/f", "", namespace.ErrExists)
		wantErr(t, e, namespace.OpMkdirs, "/x/f/sub", "", namespace.ErrNotDir)
	})
}

func TestDeleteFileAndDir(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/d/sub", "")
		mustOK(t, e, namespace.OpCreate, "/d/f1", "")
		mustOK(t, e, namespace.OpCreate, "/d/sub/f2", "")

		mustOK(t, e, namespace.OpDelete, "/d/f1", "")
		wantErr(t, e, namespace.OpStat, "/d/f1", "", namespace.ErrNotFound)

		// Recursive directory delete.
		mustOK(t, e, namespace.OpDelete, "/d", "")
		wantErr(t, e, namespace.OpStat, "/d", "", namespace.ErrNotFound)
		wantErr(t, e, namespace.OpStat, "/d/sub/f2", "", namespace.ErrNotFound)
		if st.INodeCount() != 1 {
			t.Fatalf("inodes left: %d", st.INodeCount())
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
		wantErr(t, e, namespace.OpDelete, "/", "", namespace.ErrPermission)
	})
}

func TestMvFile(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/src", "")
		mustOK(t, e, namespace.OpMkdirs, "/dst", "")
		mustOK(t, e, namespace.OpCreate, "/src/f", "")
		mustOK(t, e, namespace.OpMv, "/src/f", "/dst/g")
		wantErr(t, e, namespace.OpStat, "/src/f", "", namespace.ErrNotFound)
		mustOK(t, e, namespace.OpStat, "/dst/g", "")

		mustOK(t, e, namespace.OpCreate, "/src/f", "")
		wantErr(t, e, namespace.OpMv, "/src/f", "/dst/g", namespace.ErrExists)
		// Rename within the same directory.
		mustOK(t, e, namespace.OpMv, "/src/f", "/src/f2")
		mustOK(t, e, namespace.OpStat, "/src/f2", "")
	})
}

func TestMvDirSubtree(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/old/deep", "")
		mustOK(t, e, namespace.OpCreate, "/old/deep/f", "")
		mustOK(t, e, namespace.OpMkdirs, "/parent", "")
		mustOK(t, e, namespace.OpMv, "/old", "/parent/new")
		mustOK(t, e, namespace.OpStat, "/parent/new/deep/f", "")
		wantErr(t, e, namespace.OpStat, "/old", "", namespace.ErrNotFound)
		// Subtree lock must be released afterwards.
		mustOK(t, e, namespace.OpCreate, "/parent/new/deep/f2", "")
		wantErr(t, e, namespace.OpMv, "/parent", "/parent/new/oops", namespace.ErrMvIntoSelf)
	})
}

func TestReadReturnsBlockLocations(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		// Publish two DataNodes so create assigns locations.
		tx := st.Begin("seed")
		if err := tx.KVPut(store.TableDataNodes, "dn1",
			[]byte(`{"ID":"dn1","Timestamp":"2023-03-25T00:00:00Z"}`)); err != nil {
			t.Fatal(err)
		}
		if err := tx.KVPut(store.TableDataNodes, "dn2",
			[]byte(`{"ID":"dn2","Timestamp":"2023-03-25T00:00:00Z"}`)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		mustOK(t, e, namespace.OpCreate, "/blocks.bin", "")
		rd := mustOK(t, e, namespace.OpRead, "/blocks.bin", "")
		if len(rd.Blocks) != 1 || len(rd.Blocks[0].Locations) != 2 {
			t.Fatalf("blocks = %+v", rd.Blocks)
		}
		// The reply's blocks are the caller's own: read hands out the chain
		// resolve cloned, never the cached row.
		hit := mustOK(t, e, namespace.OpRead, "/blocks.bin", "")
		if !hit.CacheHit {
			t.Fatal("second read missed")
		}
		for _, r := range []*namespace.Response{rd, hit} {
			r.Blocks[0].ID, r.Blocks[0].Locations[0] = 0, "scribbled"
			r.Blocks = append(r.Blocks[:0], namespace.Block{})
		}
		again := mustOK(t, e, namespace.OpRead, "/blocks.bin", "")
		if !again.CacheHit || len(again.Blocks) != 1 || again.Blocks[0].ID != namespace.BlockID(again.ID) ||
			again.Blocks[0].Locations[0] == "scribbled" {
			t.Fatalf("a reply's blocks alias the cache: next read = %+v (hit %v)", again.Blocks, again.CacheHit)
		}
	})
}

// A block list longer than a read reply's inline room — two blocks of four
// locations each, against one block of replication — spills to the heap and
// is still the reply's own: a scribbled reply reaches neither the cached row
// nor the store's.
func TestReadSpilledBlocksArePrivate(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		blocks := func() []namespace.Block {
			return []namespace.Block{
				{ID: 7, Size: 1 << 20, Locations: []string{"dn1", "dn2", "dn3", "dn4"}},
				{ID: 8, Size: 512, Locations: []string{"dn5", "dn6", "dn7", "dn8"}},
			}
		}
		want := blocks()
		tx := st.Begin("seed")
		if err := tx.PutINode(&namespace.INode{ID: st.NextID(), ParentID: namespace.RootID, Name: "big",
			Perm: namespace.PermDefaultFile, Blocks: blocks()}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i, wantHit := range []bool{false, true, true} {
			rd := mustOK(t, e, namespace.OpRead, "/big", "")
			if rd.CacheHit != wantHit || !reflect.DeepEqual(rd.Blocks, want) {
				t.Fatalf("read %d: hit %v, blocks %+v; want hit %v, blocks %+v", i, rd.CacheHit, rd.Blocks, wantHit, want)
			}
			for b := range rd.Blocks {
				rd.Blocks[b].ID = 0
				for l := range rd.Blocks[b].Locations {
					rd.Blocks[b].Locations[l] = "scribbled"
				}
				rd.Blocks[b].Locations = append(rd.Blocks[b].Locations, "appended")
			}
			rd.Blocks = append(rd.Blocks[:1], namespace.Block{ID: 99})
		}
		cached, ok := e.Cache().Get("/big")
		if !ok || !reflect.DeepEqual(cached.Blocks, want) {
			t.Fatalf("cached row's blocks after scribbled replies: %+v (cached %v), want %+v", cached, ok, want)
		}
		rtx := st.Begin("check")
		defer rtx.Abort()
		chain, err := rtx.ResolvePathBatched("/big", store.LockNone, store.LockNone)
		if err != nil || !reflect.DeepEqual(chain[len(chain)-1].Blocks, want) {
			t.Fatalf("store row's blocks after scribbled replies: %+v, %v; want %+v", chain, err, want)
		}
	})
}

func TestCacheHitOnSecondAccess(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/c", "")
		mustOK(t, e, namespace.OpCreate, "/c/f", "")
		first := mustOK(t, e, namespace.OpStat, "/c/f", "")
		second := mustOK(t, e, namespace.OpStat, "/c/f", "")
		if second.CacheHit != true {
			t.Fatalf("second stat hit=%v first=%v", second.CacheHit, first.CacheHit)
		}
		// ls caches the listing; second ls hits.
		mustOK(t, e, namespace.OpLs, "/c", "")
		if ls2 := mustOK(t, e, namespace.OpLs, "/c", ""); !ls2.CacheHit {
			t.Fatal("second ls not served from cache")
		}
	})
}

// TestLocalWriteInvalidatesOwnEntryKeepsListing: a write takes the INode it
// changes out of the writer's own cache, and keeps the directory's complete
// listing — exact — instead of dropping it (writethrough_test.go has the
// cases where it must be dropped).
func TestLocalWriteInvalidatesOwnEntryKeepsListing(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/w", "")
		mustOK(t, e, namespace.OpCreate, "/w/a", "")
		mustOK(t, e, namespace.OpLs, "/w", "") // listing cached
		mustOK(t, e, namespace.OpCreate, "/w/b", "")
		ls := mustOK(t, e, namespace.OpLs, "/w", "")
		if !ls.CacheHit {
			t.Fatal("the writer dropped its own listing")
		}
		if len(ls.Entries) != 2 {
			t.Fatalf("stale listing served from cache after create: %+v", ls.Entries)
		}
		// Delete must invalidate the file's cached entry.
		mustOK(t, e, namespace.OpStat, "/w/a", "")
		mustOK(t, e, namespace.OpDelete, "/w/a", "")
		wantErr(t, e, namespace.OpStat, "/w/a", "", namespace.ErrNotFound)
		if ls := mustOK(t, e, namespace.OpLs, "/w", ""); !ls.CacheHit || len(ls.Entries) != 1 || ls.Entries[0].Name != "b" {
			t.Fatalf("ls after delete: hit=%v entries=%+v, want b from the cache", ls.CacheHit, ls.Entries)
		}
	})
}

// TestResultCacheDedupesResubmission: a resubmitted write (same
// ClientID/Seq) answers the first execution's reply, where running it again
// would answer otherwise; a resubmitted read runs again and sees what
// happened in between.
func TestResultCacheDedupesResubmission(t *testing.T) {
	type call struct {
		op         namespace.OpType
		path, dest string
	}
	var (
		mkD     = call{namespace.OpMkdirs, "/d", ""}
		createF = call{namespace.OpCreate, "/d/f", ""}
		deleteF = call{namespace.OpDelete, "/d/f", ""}
	)
	for _, tc := range []struct {
		req            call
		setup, between []call // anonymous: never deduplicated
		// dedup: the resubmission is the first reply itself. Otherwise it
		// re-executes, answering wantErr and listing wantEntries.
		dedup       bool
		wantErr     error
		wantEntries int
	}{
		{req: createF, setup: []call{mkD}, dedup: true}, // again: ErrExists
		// mkdirs is idempotent, so the directory is deleted in between:
		// running it again would make a new one under a new ID.
		{req: call{namespace.OpMkdirs, "/d/m", ""}, setup: []call{mkD}, between: []call{{namespace.OpDelete, "/d/m", ""}}, dedup: true},
		{req: deleteF, setup: []call{mkD, createF}, dedup: true},                              // again: ErrNotFound
		{req: call{namespace.OpMv, "/d/f", "/d/g"}, setup: []call{mkD, createF}, dedup: true}, // again: ErrNotFound
		{req: call{namespace.OpStat, "/d/f", ""}, setup: []call{mkD, createF}, between: []call{deleteF}, wantErr: namespace.ErrNotFound},
		{req: call{namespace.OpRead, "/d/f", ""}, setup: []call{mkD, createF}, between: []call{deleteF}, wantErr: namespace.ErrNotFound},
		{req: call{namespace.OpLs, "/d", ""}, setup: []call{mkD, createF}, between: []call{{namespace.OpCreate, "/d/g", ""}}, wantEntries: 2},
	} {
		t.Run(tc.req.op.String(), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				e, _ := soloEngine(clk)
				for _, c := range tc.setup {
					mustOK(t, e, c.op, c.path, c.dest)
				}
				req := namespace.Request{Op: tc.req.op, Path: tc.req.path, Dest: tc.req.dest, ClientID: "c1", Seq: 7}
				first := e.Execute(req)
				if !first.OK() {
					t.Fatalf("first %v: %s", tc.req.op, first.Err)
				}
				for _, c := range tc.between {
					mustOK(t, e, c.op, c.path, c.dest)
				}
				again := e.Execute(req)
				wantHits := func(want float64) {
					t.Helper()
					if got := e.tel.resultHits.Value(); got != want {
						t.Fatalf("%v: %v result-cache hits, want %v", tc.req.op, got, want)
					}
				}
				if tc.dedup {
					if again != first {
						t.Fatalf("resubmitted %v re-executed: %+v, first %+v", tc.req.op, again, first)
					}
					wantHits(1)
					// A genuinely new request (next Seq) runs.
					req.Seq++
					if e.Execute(req) == first {
						t.Fatalf("a new %v (next Seq) replayed the cached reply", tc.req.op)
					}
					wantHits(1)
					return
				}
				wantHits(0)
				if again == first {
					t.Fatalf("resubmitted %v replayed the first reply %+v", tc.req.op, first)
				}
				if !errors.Is(again.Error(), tc.wantErr) || len(again.Entries) != tc.wantEntries {
					t.Fatalf("resubmitted %v: err %v, %d entries; want %v, %d", tc.req.op,
						again.Error(), len(again.Entries), tc.wantErr, tc.wantEntries)
				}
			})
		})
	}
}

// twoEngines builds two engines in the same deployment sharing a store
// and coordinator — the multi-instance coherence scenario.
func twoEngines(t *testing.T, clk *clock.Sim, deployments int) (*Engine, *Engine, *ndb.DB) {
	t.Helper()
	fleet, _, _, st := engineFleet(t, clk, deployments, 2)
	return fleet[0][0], fleet[0][1], st
}

func TestCoherenceAcrossInstances(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1) // single deployment: both own everything
		mustOK(t, a, namespace.OpMkdirs, "/coh", "")
		mustOK(t, a, namespace.OpCreate, "/coh/f", "")

		// b caches the file.
		mustOK(t, b, namespace.OpStat, "/coh/f", "")
		if hit := mustOK(t, b, namespace.OpStat, "/coh/f", ""); !hit.CacheHit {
			t.Fatal("b did not cache")
		}
		// a deletes it; the INV must reach b before the delete persists.
		mustOK(t, a, namespace.OpDelete, "/coh/f", "")
		wantErr(t, b, namespace.OpStat, "/coh/f", "", namespace.ErrNotFound)
	})
}

func TestCoherenceListingAcrossInstances(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/dir", "")
		mustOK(t, a, namespace.OpCreate, "/dir/x", "")
		mustOK(t, b, namespace.OpLs, "/dir", "")
		if ls := mustOK(t, b, namespace.OpLs, "/dir", ""); !ls.CacheHit {
			t.Fatal("listing not cached on b")
		}
		mustOK(t, a, namespace.OpCreate, "/dir/y", "")
		ls := mustOK(t, b, namespace.OpLs, "/dir", "")
		if ls.CacheHit {
			t.Fatal("b served stale listing after sibling create")
		}
		if len(ls.Entries) != 2 {
			t.Fatalf("entries = %+v", ls.Entries)
		}
	})
}

func TestCoherenceSubtreePrefixINV(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/tree/deep", "")
		mustOK(t, a, namespace.OpCreate, "/tree/deep/f", "")
		mustOK(t, b, namespace.OpStat, "/tree/deep/f", "")
		mustOK(t, a, namespace.OpDelete, "/tree", "")
		wantErr(t, b, namespace.OpStat, "/tree/deep/f", "", namespace.ErrNotFound)
		wantErr(t, b, namespace.OpStat, "/tree", "", namespace.ErrNotFound)
	})
}

func TestLinearizabilityCreateDeleteLoop(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Property: after a delete completes on engine A, a stat on engine B
		// never sees the file; after a create completes, B always sees it.
		a, b, st := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/lin", "")
		for i := 0; i < 60; i++ {
			p := fmt.Sprintf("/lin/f%d", i%7)
			mustOK(t, a, namespace.OpCreate, p, "")
			if r := mustOK(t, b, namespace.OpStat, p, ""); r.Stat == nil {
				t.Fatalf("stat after create returned nothing (i=%d)", i)
			}
			mustOK(t, a, namespace.OpDelete, p, "")
			wantErr(t, b, namespace.OpStat, p, "", namespace.ErrNotFound)
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, st := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/conc", "")
		wg := clock.NewGroup(clk)
		for w, e := range []*Engine{a, b} {
			wg.Go(func() {
				for i := 0; i < 30; i++ {
					p := fmt.Sprintf("/conc/w%d-%d", w, i)
					if r := do(t, e, namespace.OpCreate, p, ""); !r.OK() {
						t.Errorf("create %s: %s", p, r.Err)
						return
					}
				}
			})
		}
		wg.Wait()
		ls := mustOK(t, a, namespace.OpLs, "/conc", "")
		if len(ls.Entries) != 60 {
			t.Fatalf("entries = %d, want 60", len(ls.Entries))
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}

func TestConcurrentCreateSameFileOneWins(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/race", "")
		var ok, exists int
		var mu sync.Mutex
		wg := clock.NewGroup(clk)
		for _, e := range []*Engine{a, b, a, b} {
			wg.Go(func() {
				r := e.Execute(namespace.Request{Op: namespace.OpCreate, Path: "/race/one"})
				mu.Lock()
				defer mu.Unlock()
				if r.OK() {
					ok++
				} else if errors.Is(r.Error(), namespace.ErrExists) {
					exists++
				} else {
					t.Errorf("unexpected: %s", r.Err)
				}
			})
		}
		wg.Wait()
		if ok != 1 || exists != 3 {
			t.Fatalf("ok=%d exists=%d", ok, exists)
		}
	})
}

// flagSubtreeOf runs the first transaction of op on the directory at path
// alone — Phase 1, which flags the subtree and commits — as if the operation
// had stalled there (an mv's destination is path+"-moved"), and returns the
// root it flagged.
func flagSubtreeOf(e *Engine, op namespace.OpType, path string) (root namespace.INodeID, err error) {
	err = store.RunTx(e.st, e.id, nil, func(tx store.Tx) (err error) {
		if op == namespace.OpMv {
			root, err = e.mvTx(nil, tx, path, path+"-moved", namespace.InvalidID)
		} else {
			root, err = e.delTx(nil, tx, path, namespace.InvalidID)
		}
		return err
	})
	return root, err
}

func TestSubtreeIsolationBlocksInnerOps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/iso/deep", "")
		mustOK(t, a, namespace.OpMkdirs, "/quiet", "")
		mustOK(t, a, namespace.OpCreate, "/quiet/file", "")
		root, err := flagSubtreeOf(a, namespace.OpDelete, "/iso")
		if err != nil {
			t.Fatal(err)
		}
		wantErr(t, b, namespace.OpCreate, "/iso/deep/f", "", namespace.ErrSubtreeBusy)
		wantErr(t, b, namespace.OpMv, "/iso/deep", "/elsewhere", namespace.ErrSubtreeBusy)
		// What the path names is decided first, as the pre-transaction peek
		// used to: a missing target is ErrNotFound whatever is above it (the
		// model tests pin the same for a non-directory parent); a target that
		// exists meets isolation in the transaction that locked it, a file's
		// and a directory's alike (a directory is flagged there).
		wantErr(t, b, namespace.OpDelete, "/iso/deep/missing", "", namespace.ErrNotFound)
		wantErr(t, b, namespace.OpMv, "/iso/deep/missing", "/elsewhere", namespace.ErrNotFound)
		wantErr(t, b, namespace.OpMv, "/quiet/missing", "/iso/deep/f", namespace.ErrNotFound)
		wantErr(t, b, namespace.OpDelete, "/iso/deep", "", namespace.ErrSubtreeBusy)
		wantErr(t, b, namespace.OpMv, "/quiet/file", "/iso/deep/f", namespace.ErrSubtreeBusy)
		// Overlapping subtree op rejected too.
		if _, err := flagSubtreeOf(b, namespace.OpMv, "/iso"); !errors.Is(err, namespace.ErrSubtreeBusy) {
			t.Fatalf("overlapping subtree lock: %v", err)
		}
		a.subtreeUnlock(nil, root)
		mustOK(t, b, namespace.OpCreate, "/iso/deep/f", "")
	})
}

func TestCrashCleanupReleasesSubtreeLock(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, st := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/crash/dir", "")
		if _, err := flagSubtreeOf(a, namespace.OpDelete, "/crash"); err != nil {
			t.Fatal(err)
		}
		wantErr(t, b, namespace.OpCreate, "/crash/dir/f", "", namespace.ErrSubtreeBusy)
		// a crashes; cleanup runs (normally via the Coordinator's OnCrash).
		CleanupCrashedNameNode(st, a.ID())
		mustOK(t, b, namespace.OpCreate, "/crash/dir/f", "")
	})
}

// TestStaleOwnFlagStillQuiesces: a non-empty directory still flagged with
// the engine's own ID (a subtree operation of an earlier life of this
// NameNode ID that never finished) is deleted, or moved, by the full
// protocol — flag, quiesce, batches, last transaction — never by the last
// transaction alone, which would orphan the children.
func TestStaleOwnFlagStillQuiesces(t *testing.T) {
	for _, op := range []namespace.OpType{namespace.OpDelete, namespace.OpMv} {
		t.Run(op.String(), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				e, st := soloEngine(clk)
				mustOK(t, e, namespace.OpMkdirs, "/stale/sub", "")
				for _, p := range []string{"/stale/f", "/stale/sub/g"} {
					mustOK(t, e, namespace.OpCreate, p, "")
				}
				if _, err := flagSubtreeOf(e, op, "/stale"); err != nil {
					t.Fatal(err)
				}
				mustOK(t, e, op, "/stale", "/fresh")
				if op == namespace.OpMv {
					mustOK(t, e, namespace.OpStat, "/fresh/sub/g", "")
					chain, err := st.ResolvePath("/fresh")
					if err != nil {
						t.Fatal(err)
					}
					if owner := chain[len(chain)-1].SubtreeLockOwner; owner != "" {
						t.Fatalf("moved root still flagged by %q", owner)
					}
				} else if n := st.INodeCount(); n != 1 {
					t.Fatalf("inodes left after delete: %d, want the root directory alone", n)
				}
				if bad := st.CheckIntegrity(); len(bad) != 0 {
					t.Fatalf("store integrity: %v", bad)
				}
				var ops map[string][]byte
				if err := store.RunTx(st, "audit", nil, func(tx store.Tx) (err error) {
					ops, err = tx.KVScan(store.TableSubtreeOps, "")
					return err
				}); err != nil || len(ops) != 0 {
					t.Fatalf("subtree_ops rows left: %v (err %v)", ops, err)
				}
				if st.HeldLocks() != 0 {
					t.Fatalf("locks leaked: %d", st.HeldLocks())
				}
			})
		})
	}
}

func TestNonOwnerDoesNotCache(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := fastStore(clk)
		coord := fastCoord(clk, st)
		ring := partition.NewRing(4, 0)
		cfg := DefaultEngineConfig()
		cfg.OpCPUCost = 0
		e := NewEngine("nn-x", 0, clk, st, ring, coord, nil, cfg)
		coord.Register(0, "nn-x", e.HandleInvalidation)

		// Find a path NOT owned by deployment 0.
		var p string
		for i := 0; ; i++ {
			cand := fmt.Sprintf("/foreign%d/f", i)
			if ring.DeploymentForPath(cand) != 0 {
				p = cand
				break
			}
		}
		mustOK(t, e, namespace.OpMkdirs, namespace.ParentPath(p), "")
		mustOK(t, e, namespace.OpCreate, p, "")
		mustOK(t, e, namespace.OpStat, p, "")
		if r := mustOK(t, e, namespace.OpStat, p, ""); r.CacheHit {
			t.Fatal("non-owner cached foreign metadata")
		}
	})
}

// TestResultCacheBounded: an engine keeps one client's latest write reply
// only, so a resubmission of an older write runs again, while the newest
// still answers its cached reply; the cache never holds more than
// resultCacheSize entries.
func TestResultCacheBounded(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := fastStore(clk)
		cfg := DefaultEngineConfig()
		cfg.OpCPUCost = 0
		e := NewEngine("nn-solo", -1, clk, st, nil, nil, nil, cfg)
		exec := func(seq uint64, path string) *namespace.Response {
			t.Helper()
			resp := e.Execute(namespace.Request{Op: namespace.OpCreate, Path: path, ClientID: "c", Seq: seq})
			if n := e.results.len(); n > resultCacheSize {
				t.Fatalf("result cache holds %d replies, bound %d", n, resultCacheSize)
			}
			return resp
		}
		creates := resultCacheSize + 2
		var newest *namespace.Response
		for seq := 0; seq < creates; seq++ {
			p := fmt.Sprintf("/f%d", seq+1)
			if newest = exec(uint64(seq), p); !newest.OK() {
				t.Fatalf("create %s: %s", p, newest.Err)
			}
		}
		if r := exec(0, "/f1"); !errors.Is(r.Error(), namespace.ErrExists) {
			t.Fatalf("resubmitted evicted create: %v, want it re-executed (ErrExists)", r.Error())
		}
		if r := exec(uint64(creates-1), fmt.Sprintf("/f%d", creates)); r != newest {
			t.Fatalf("resubmitted newest create: %+v, want its cached reply %+v", r, newest)
		}
	})
}

// TestResultCacheKeepsEachClientsLatestReply: the cache holds one entry per
// client, its latest write; at most resultCacheSize clients are kept, the
// first to arrive evicted first; and a stale resubmission re-executes
// without displacing the client's newer reply.
func TestResultCacheKeepsEachClientsLatestReply(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		create := func(client string, seq uint64, path string) *namespace.Response {
			t.Helper()
			return e.Execute(namespace.Request{Op: namespace.OpCreate, Path: path, ClientID: client, Seq: seq})
		}

		for seq := uint64(1); seq <= 100; seq++ {
			if r := create("c", seq, fmt.Sprintf("/seq%d", seq)); !r.OK() {
				t.Fatalf("create %d: %s", seq, r.Err)
			}
		}
		if n := e.results.len(); n != 1 {
			t.Fatalf("one client's 100 sequential writes left %d entries, want 1", n)
		}

		// A stale Seq re-executes (here: a create that now succeeds) and
		// does not displace the newer reply.
		newest := create("c", 100, "/seq100")
		if r := create("c", 3, "/stale"); !r.OK() || r == newest {
			t.Fatalf("stale resubmission: %+v, want a fresh execution", r)
		}
		if r := create("c", 100, "/seq100"); r != newest {
			t.Fatalf("after a stale resubmission the newest reply is %+v, want %+v", r, newest)
		}

		first := create("client-0", 1, "/by-client-0")
		if create("client-0", 1, "/by-client-0") != first {
			t.Fatal("client-0's write was not cached")
		}
		// c and client-0 plus resultCacheSize-1 more: the cache is full, and
		// one more client evicts the first to arrive, c.
		for i := 1; i < resultCacheSize; i++ {
			create(fmt.Sprintf("client-%d", i), 1, fmt.Sprintf("/by-client-%d", i))
		}
		if n := e.results.len(); n != resultCacheSize {
			t.Fatalf("%d clients left %d entries, want %d", resultCacheSize+1, n, resultCacheSize)
		}
		if r := create("c", 100, "/seq100"); r == newest || !errors.Is(r.Error(), namespace.ErrExists) {
			t.Fatalf("the evicted client's resubmission: %+v, want it re-executed (ErrExists)", r)
		}
		// c came back as the newest client, so client-0 is now the oldest.
		if r := create("client-0", 1, "/by-client-0"); r == first || !errors.Is(r.Error(), namespace.ErrExists) {
			t.Fatalf("client-0's resubmission after c returned: %+v, want it re-executed (ErrExists)", r)
		}
	})
}

func TestInvalidPathsRejected(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		wantErr(t, e, namespace.OpStat, "relative/path", "", namespace.ErrInvalidPath)
		wantErr(t, e, namespace.OpMv, "/a", "bad", namespace.ErrInvalidPath)
	})
}

func TestReducedCacheEngineStaysCorrect(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// A cache far smaller than the working set must only cost
		// performance, never correctness.
		st := fastStore(clk)
		cfg := DefaultEngineConfig()
		cfg.OpCPUCost = 0
		cfg.CacheBudget = 2048 // a handful of entries
		e := NewEngine("nn-small", -1, clk, st, nil, nil, nil, cfg)
		mustOK(t, e, namespace.OpMkdirs, "/rc", "")
		for i := 0; i < 50; i++ {
			p := fmt.Sprintf("/rc/f%02d", i)
			mustOK(t, e, namespace.OpCreate, p, "")
		}
		for i := 0; i < 50; i++ {
			p := fmt.Sprintf("/rc/f%02d", i)
			r := mustOK(t, e, namespace.OpStat, p, "")
			if r.Stat == nil {
				t.Fatalf("stat %s lost", p)
			}
		}
		c := e.Cache()
		if c.UsedBytes() > cfg.CacheBudget {
			t.Fatalf("cache over budget: %d > %d", c.UsedBytes(), cfg.CacheBudget)
		}
		if s := c.Stats(); s.Evictions == 0 {
			t.Fatal("tiny budget produced no evictions")
		}
		ls := mustOK(t, e, namespace.OpLs, "/rc", "")
		if len(ls.Entries) != 50 {
			t.Fatalf("ls = %d entries", len(ls.Entries))
		}
	})
}

func TestResultCacheDisabledForAnonymousRequests(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, _ := soloEngine(clk)
		// Requests without a ClientID must not be deduplicated.
		r1 := e.Execute(namespace.Request{Op: namespace.OpCreate, Path: "/anon"})
		r2 := e.Execute(namespace.Request{Op: namespace.OpCreate, Path: "/anon"})
		if !r1.OK() || r2.OK() {
			t.Fatalf("anonymous dedup occurred: %v %v", r1.Err, r2.Err)
		}
	})
}

func TestSubtreeDeleteHugeUsesBatches(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		e, st := soloEngine(clk)
		mustOK(t, e, namespace.OpMkdirs, "/huge", "")
		// More files than one SubtreeBatch (512).
		for i := 0; i < 700; i++ {
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/huge/f%03d", i), "")
		}
		mustOK(t, e, namespace.OpDelete, "/huge", "")
		if st.INodeCount() != 1 {
			t.Fatalf("inodes left: %d", st.INodeCount())
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}

func TestSubtreeDeleteFailedBatchKeepsRoot(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Regression: a victim batch whose commit fails used to be dropped and
		// the root row deleted anyway, orphaning the batch's inodes.
		var armed atomic.Bool
		var commits atomic.Int64
		ncfg := ndb.DefaultConfig()
		ncfg.RTT, ncfg.ReadService, ncfg.WriteService = 0, 0, 0
		ncfg.OnCommit = func(string) error {
			// Commit 1 is the subtree lock, 2 the first victim batch to finish.
			if armed.Load() && commits.Add(1) == 2 {
				return errors.New("injected commit abort")
			}
			return nil
		}
		st := ndb.New(clk, ncfg)
		cfg := DefaultEngineConfig()
		cfg.OpCPUCost, cfg.SubtreeCPUPerINode = 0, 0
		e := NewEngine("nn-solo", -1, clk, st, nil, nil, nil, cfg)
		mustOK(t, e, namespace.OpMkdirs, "/doomed", "")
		for i := 0; i < 700; i++ { // two SubtreeBatch-sized victim batches
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/doomed/f%03d", i), "")
		}

		armed.Store(true)
		if resp := do(t, e, namespace.OpDelete, "/doomed", ""); resp.OK() {
			t.Fatal("delete reported success although a victim batch failed to commit")
		}
		armed.Store(false)
		if bad := st.CheckIntegrity(); len(bad) > 0 {
			t.Fatalf("integrity violations after failed delete: %v", bad)
		}
		chain, err := st.ResolvePath("/doomed")
		if err != nil {
			t.Fatalf("root gone after failed delete: %v", err)
		}
		if owner := chain[len(chain)-1].SubtreeLockOwner; owner != "" {
			t.Fatalf("subtree lock still held by %q", owner)
		}
		var ops map[string][]byte
		if err := store.RunTx(st, "audit", nil, func(tx store.Tx) (err error) {
			ops, err = tx.KVScan(store.TableSubtreeOps, "")
			return err
		}); err != nil || len(ops) != 0 {
			t.Fatalf("subtree_ops rows left: %v (err %v)", ops, err)
		}
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}

		mustOK(t, e, namespace.OpDelete, "/doomed", "")
		if st.INodeCount() != 1 {
			t.Fatalf("inodes left after retried delete: %d", st.INodeCount())
		}
	})
}

func TestNoCacheFillUnderForeignSubtreeLock(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Regression: a cache fill racing a subtree operation must not insert
		// entries after the prefix INV has passed — they would go stale when
		// the subtree is deleted (no further INVs are sent).
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/locked", "")
		mustOK(t, a, namespace.OpCreate, "/locked/f", "")
		root, err := flagSubtreeOf(a, namespace.OpDelete, "/locked")
		if err != nil {
			t.Fatal(err)
		}
		// Simulate the prefix INV having already cleared b's cache.
		b.Cache().Invalidate("/locked")
		// b's read during the locked window is rejected AND must not fill
		// the cache.
		wantErr(t, b, namespace.OpStat, "/locked/f", "", namespace.ErrSubtreeBusy)
		if b.Cache().Contains("/locked/f") || b.Cache().Contains("/locked") {
			t.Fatal("cache filled under a foreign subtree lock")
		}
		a.subtreeUnlock(nil, root)
		mustOK(t, b, namespace.OpStat, "/locked/f", "")
	})
}
