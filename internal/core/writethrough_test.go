package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// These tests pin the coherence of the listing a writer maintains: a write
// on the engine that owns a directory suspends the directory's complete
// listing before the commit and resumes it, exact, at the commit point —
// and every way that can go wrong (a peer, the other deployment, a failed
// round, a failed commit, an eviction, a reader in the commit window) falls
// back to plain invalidation.

// storeNames is what a fresh instance would answer for ls dir: the store's
// children, by name.
func storeNames(t *testing.T, st *ndb.DB, dir string) []string {
	t.Helper()
	tx := st.Begin("audit")
	defer tx.Abort()
	_, kids, err := tx.ListPathBatched(dir, store.LockNone)
	if err != nil {
		t.Fatalf("store ls %s: %v", dir, err)
	}
	names := make([]string, len(kids))
	for i, k := range kids {
		names[i] = k.Name
	}
	return names
}

func entryNames(resp *namespace.Response) []string {
	names := make([]string, len(resp.Entries))
	for i, e := range resp.Entries {
		names[i] = e.Name
	}
	return names
}

// wantLs lists dir on e and requires the store's answer, from the cache
// (hit) or not.
func wantLs(t *testing.T, e *Engine, st *ndb.DB, dir string, hit bool) {
	t.Helper()
	ls := mustOK(t, e, namespace.OpLs, dir, "")
	if ls.CacheHit != hit {
		t.Errorf("%s: ls %s cache hit = %v, want %v", e.ID(), dir, ls.CacheHit, hit)
	}
	if got, want := entryNames(ls), storeNames(t, st, dir); !slices.Equal(got, want) {
		t.Errorf("%s: ls %s = %v (cache hit %v), store has %v", e.ID(), dir, got, ls.CacheHit, want)
	}
}

// TestCompleteListingSurvivesOwnWrites: every single-INode write in a
// directory leaves the writer's own complete listing complete and exact,
// and the row it wrote cached beside it.
func TestCompleteListingSurvivesOwnWrites(t *testing.T) {
	for _, deployments := range []int{1, 4} {
		t.Run(fmt.Sprintf("deployments=%d", deployments), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				fleet, ring, _, st := engineFleet(t, clk, deployments, 1)
				e := fleet[ring.Route(namespace.OpLs, "/w")][0] // owns /w's listing and /w's children
				mustOK(t, e, namespace.OpMkdirs, "/w", "")
				mustOK(t, e, namespace.OpCreate, "/w/a", "")
				wantLs(t, e, st, "/w", false)
				wantLs(t, e, st, "/w", true)
				for _, c := range []struct {
					op         namespace.OpType
					path, dest string
					appears    string // stat'able from the cache afterwards
				}{
					{namespace.OpCreate, "/w/b", "", "/w/b"},
					{namespace.OpDelete, "/w/a", "", ""},
					{namespace.OpMv, "/w/b", "/w/c", "/w/c"},
					{namespace.OpMkdirs, "/w/sub/deep", "", "/w/sub"},
					{namespace.OpCreate, "/w/d", "", "/w/d"},
				} {
					reads := st.Stats().Reads
					mustOK(t, e, c.op, c.path, c.dest)
					wantLs(t, e, st, "/w", true)
					if c.appears != "" {
						if stat := mustOK(t, e, namespace.OpStat, c.appears, ""); !stat.CacheHit {
							t.Errorf("%v %s: stat %s missed, want the committed row installed", c.op, c.path, c.appears)
						}
					}
					if c.op == namespace.OpMv || c.op == namespace.OpDelete {
						wantErr(t, e, namespace.OpStat, c.path, "", namespace.ErrNotFound)
					}
					// The write's lock phase (and a deep mkdirs' first one, and
					// the stat of what it removed) are the only store reads:
					// nothing above was refilled.
					want := uint64(1)
					switch c.op {
					case namespace.OpMkdirs, namespace.OpMv, namespace.OpDelete:
						want = 2
					}
					if got := st.Stats().Reads - reads - 1; got != want { // -1: storeNames' own read
						t.Errorf("%v %s: %d store reads, want %d", c.op, c.path, got, want)
					}
				}
				if deployments == 1 {
					// One deployment owns both directories of a rename across
					// directories: each side is maintained on its own.
					mustOK(t, e, namespace.OpMkdirs, "/v", "")
					mustOK(t, e, namespace.OpLs, "/v", "")
					wantLs(t, e, st, "/v", true)
					mustOK(t, e, namespace.OpMv, "/w/c", "/v/c")
					wantLs(t, e, st, "/w", true)
					wantLs(t, e, st, "/v", true)
				}
				// The directory's own row is the committed one (new mtime).
				chain, err := st.ResolvePath("/w")
				if err != nil {
					t.Fatal(err)
				}
				if cached, ok := e.Cache().Get("/w"); !ok || cached.Mtime != chain[1].Mtime {
					t.Errorf("cached /w = %+v, store mtime %v", cached, chain[1].Mtime)
				}
				if st.HeldLocks() != 0 {
					t.Fatalf("locks leaked: %d", st.HeldLocks())
				}
			})
		})
	}
}

// TestPeerListingDroppedWriterKept: of two instances of the owning
// deployment the writer keeps its listing and the follower drops its own;
// both answer what the store holds.
func TestPeerListingDroppedWriterKept(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, st := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/w", "")
		mustOK(t, a, namespace.OpCreate, "/w/x", "")
		for _, e := range []*Engine{a, b} {
			wantLs(t, e, st, "/w", false)
			wantLs(t, e, st, "/w", true)
		}
		mustOK(t, a, namespace.OpCreate, "/w/y", "")
		wantLs(t, a, st, "/w", true)
		wantLs(t, b, st, "/w", false)
		mustOK(t, b, namespace.OpDelete, "/w/x", "")
		wantLs(t, b, st, "/w", true)
		wantLs(t, a, st, "/w", false)
	})
}

// TestCrossDirectoryMvMaintainsOwnedSide: a rename between directories of
// two deployments keeps the listing of the side the writer owns and clears
// the other deployment's, whichever side that is.
func TestCrossDirectoryMvMaintainsOwnedSide(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fleet, ring, _, st := engineFleet(t, clk, 4, 1)
		// Two directories whose children (and listings) two deployments own.
		p, q := "/d0", ""
		for i := 1; q == ""; i++ {
			if d := fmt.Sprintf("/d%d", i); ring.Route(namespace.OpLs, d) != ring.Route(namespace.OpLs, p) {
				q = d
			}
		}
		ownP, ownQ := fleet[ring.Route(namespace.OpLs, p)][0], fleet[ring.Route(namespace.OpLs, q)][0]
		for _, path := range []string{p, q} {
			mustOK(t, ownP, namespace.OpMkdirs, path, "")
			for _, f := range []string{"/f1", "/f2"} {
				mustOK(t, ownP, namespace.OpCreate, path+f, "")
			}
		}
		warm := func() {
			t.Helper()
			mustOK(t, ownP, namespace.OpLs, p, "")
			mustOK(t, ownQ, namespace.OpLs, q, "")
			wantLs(t, ownP, st, p, true)
			wantLs(t, ownQ, st, q, true)
		}
		warm()
		mustOK(t, ownP, namespace.OpMv, p+"/f1", q+"/g1") // the writer owns the source side
		wantLs(t, ownP, st, p, true)
		wantLs(t, ownQ, st, q, false)
		warm()
		mustOK(t, ownQ, namespace.OpMv, p+"/f2", q+"/g2") // the writer owns the destination side
		wantLs(t, ownQ, st, q, true)
		if stat := mustOK(t, ownQ, namespace.OpStat, q+"/g2", ""); !stat.CacheHit {
			t.Errorf("stat %s/g2 missed on the destination's owner", q)
		}
		wantLs(t, ownP, st, p, false)
	})
}

// TestFailedWriteLeavesListingNotComplete: a write that does not commit —
// its INV round failed, or the commit itself — never resumes the listing it
// may have suspended; nor does the next writer trust a suspension it finds
// standing. The next ls goes to the store.
func TestFailedWriteLeavesListingNotComplete(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		failCommit := false
		ncfg := ndb.DefaultConfig()
		ncfg.RTT, ncfg.ReadService, ncfg.WriteService = 0, 0, 0
		ncfg.OnCommit = func(string) error {
			if failCommit {
				return errors.New("injected commit abort")
			}
			return nil
		}
		st := ndb.New(clk, ncfg)
		fleet, _, coord := engineFleetOn(clk, st, 1, 1)
		e := fleet[0][0]
		mustOK(t, e, namespace.OpMkdirs, "/w", "")
		mustOK(t, e, namespace.OpCreate, "/w/a", "")
		warm := func() {
			t.Helper()
			mustOK(t, e, namespace.OpLs, "/w", "")
			wantLs(t, e, st, "/w", true)
		}

		warm()
		coord.fail = coordinator.ErrAckTimeout
		if resp := do(t, e, namespace.OpCreate, "/w/inv-failed", ""); resp.OK() {
			t.Fatal("create succeeded although its INV round failed")
		}
		coord.fail = nil
		if e.Cache().IsComplete("/w") {
			t.Error("listing complete after a failed INV round")
		}
		wantLs(t, e, st, "/w", false)

		warm()
		failCommit = true
		if resp := do(t, e, namespace.OpDelete, "/w/a", ""); resp.OK() {
			t.Fatal("delete succeeded although its commit failed")
		}
		failCommit = false
		if e.Cache().IsComplete("/w") {
			t.Error("listing complete after a failed commit")
		}
		// The aborted delete took a's entry out of the cache and left the
		// listing suspended; a writer resuming that suspension would list /w
		// complete without a, which the store still has.
		mustOK(t, e, namespace.OpCreate, "/w/b", "")
		if e.Cache().IsComplete("/w") {
			t.Error("a writer resumed a suspension that was not its own")
		}
		wantLs(t, e, st, "/w", false)
		wantLs(t, e, st, "/w", true)
		if st.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", st.HeldLocks())
		}
	})
}

// TestEvictedSiblingBlocksResume: with the cache at its budget, installing
// the committed row evicts the coldest entry — a sibling — and a listing
// that lost a child must not come back complete.
func TestEvictedSiblingBlocksResume(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := fastStore(clk)
		cfg := DefaultEngineConfig()
		cfg.OpCPUCost = 0
		cfg.CacheBudget = 64 << 10
		e := NewEngine("nn-small", -1, clk, st, nil, nil, nil, cfg)
		mustOK(t, e, namespace.OpMkdirs, "/w", "")
		mustOK(t, e, namespace.OpMkdirs, "/pad", "")
		for i := 0; i < 8; i++ {
			mustOK(t, e, namespace.OpCreate, fmt.Sprintf("/w/f%03d", i), "")
		}
		mustOK(t, e, namespace.OpLs, "/w", "")
		wantLs(t, e, st, "/w", true)
		// Fill the rest of the budget with entries hotter than /w's children,
		// stopping one entry short of the first eviction.
		c := e.Cache()
		for i, size := 0, int64(0); cfg.CacheBudget-c.UsedBytes() >= size; i++ {
			p := fmt.Sprintf("/pad/f%03d", i)
			mustOK(t, e, namespace.OpCreate, p, "")
			before := c.UsedBytes()
			mustOK(t, e, namespace.OpStat, p, "")
			size = c.UsedBytes() - before
		}
		if c.Stats().Evictions != 0 || !c.IsComplete("/w") {
			t.Fatalf("fixture: %d evictions, /w complete = %v before the write", c.Stats().Evictions, c.IsComplete("/w"))
		}
		mustOK(t, e, namespace.OpCreate, "/w/new", "")
		if c.Stats().Evictions == 0 {
			t.Fatal("fixture: installing the new row evicted nothing")
		}
		if c.IsComplete("/w") {
			t.Error("listing resumed although a sibling was evicted by the install")
		}
		wantLs(t, e, st, "/w", false)
	})
}

// windowRead is one read of the commit-window test.
type windowRead struct {
	start, end time.Duration // virtual, from the write's start
	local      bool          // on the writer's engine (cached) or pass-through
	hit, isNew bool          // served from the cache; saw the created file
}

// TestReadersInCommitWindow runs a create on the directory's owner on
// clock.Sim, with a durable store so that the commit has a window (row
// service beside the fsync, locks held), and starts an ls of the directory
// every 20 µs of it on the writer's own engine and, lock-free, on a
// pass-through engine of another deployment. The listing is suspended from
// the INV to the commit point: a local reader arriving then misses, parks on
// the writer's lock and answers the new listing; nobody answers the old
// listing after anybody finished answering the new one; and once the write
// is done the writer's listing serves the new file from the cache. The
// counts are virtual-time exact, so they are the same on any GOMAXPROCS.
func TestReadersInCommitWindow(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	ncfg := ndb.DefaultConfig()
	ncfg.Durable = ndb.NewDurable(clk, ncfg.DataNodes, lsm.DefaultConfig())
	ncfg.Durability = ndb.DefaultDurabilityConfig()
	var db *ndb.DB
	var owner, through *Engine
	ring := partition.NewRing(2, 0)
	ecfg := DefaultEngineConfig()
	ecfg.OpCPUCost = 0
	const step, span = 20 * time.Microsecond, 3 * time.Millisecond
	var reads []windowRead
	var suspendedAt, resumedAt, wrote time.Duration = -1, -1, 0
	clock.Run(clk, func() {
		db = ndb.New(clk, ncfg)
		zk := coordinator.NewZK(clk, coordinator.DefaultConfig())
		dep := ring.Route(namespace.OpLs, "/w")
		owner = NewEngine("nn-owner", dep, clk, db, ring, zk, nil, ecfg)
		through = NewEngine("nn-through", 1-dep, clk, db, ring, zk, nil, ecfg)
		zk.Register(dep, owner.ID(), owner.HandleInvalidation)
		zk.Register(1-dep, through.ID(), through.HandleInvalidation)
		for _, p := range []string{"/w", "/w/old"} {
			op := namespace.OpMkdirs
			if p != "/w" {
				op = namespace.OpCreate
			}
			if resp := owner.Execute(namespace.Request{Op: op, Path: p}); !resp.OK() {
				t.Errorf("%v %s: %s", op, p, resp.Err)
			}
		}
		for i := 0; i < 2; i++ {
			owner.Execute(namespace.Request{Op: namespace.OpLs, Path: "/w"})
		}
		if !owner.Cache().IsComplete("/w") {
			t.Error("fixture: /w not listed complete on its owner")
		}

		t0 := clk.Now()
		g := clock.NewGroup(clk)
		g.Go(func() {
			if resp := owner.Execute(namespace.Request{Op: namespace.OpCreate, Path: "/w/new"}); !resp.OK() {
				t.Errorf("create /w/new: %s", resp.Err)
			}
			wrote = clk.Since(t0)
		})
		out := make([]windowRead, 2*int(span/step))
		for i := range out {
			r := &out[i]
			r.local = i%2 == 0
			r.start = time.Duration(i/2) * step
			g.Go(func() {
				clk.Sleep(r.start)
				e := through
				if r.local {
					e = owner
					// The listing's state as this reader finds it.
					switch complete := owner.Cache().IsComplete("/w"); {
					case !complete && suspendedAt < 0:
						suspendedAt = r.start
					case complete && suspendedAt >= 0 && resumedAt < 0:
						resumedAt = r.start
					}
				}
				resp := e.Execute(namespace.Request{Op: namespace.OpLs, Path: "/w"})
				if !resp.OK() {
					t.Errorf("ls /w at +%v: %s", r.start, resp.Err)
				}
				r.end = clk.Since(t0)
				r.hit = resp.CacheHit
				r.isNew = slices.Contains(entryNames(resp), "new")
			})
		}
		g.Wait()
		reads = out
	})

	// Sampled every step: the listing is complete again at the first sample
	// after the commit point, which is where the write ends.
	if suspendedAt < 0 || resumedAt <= suspendedAt || resumedAt-step >= wrote {
		t.Fatalf("listing suspended at +%v, complete again at +%v, write done at +%v: want a suspension that ends with the write",
			suspendedAt, resumedAt, wrote)
	}
	t.Logf("listing suspended at +%v, complete again by +%v, write done at +%v", suspendedAt, resumedAt, wrote)
	firstNew := span * 2 // the earliest instant at which somebody had answered the new listing
	for _, r := range reads {
		if r.isNew {
			firstNew = min(firstNew, r.end)
		}
	}
	counts := map[string]int{}
	for _, r := range reads {
		kind := "through"
		if r.local {
			kind = "local"
		}
		switch {
		case r.hit && r.isNew:
			kind += " hit new"
		case r.hit:
			kind += " hit old"
		case r.isNew:
			kind += " miss new"
		default:
			kind += " miss old"
		}
		counts[kind]++
		if !r.isNew && r.start >= firstNew {
			t.Errorf("%s read at +%v answered the old listing after a reader had the new one at +%v", kind, r.start, firstNew)
		}
		if !r.local {
			continue
		}
		inWindow := r.start >= suspendedAt && r.start < resumedAt
		switch {
		case inWindow && (r.hit || !r.isNew || r.end < wrote):
			t.Errorf("local read in the suspension (+%v): hit=%v new=%v done +%v; want a miss answering the new listing after the commit (+%v)",
				r.start, r.hit, r.isNew, r.end, wrote)
		case r.start < suspendedAt && (!r.hit || r.isNew):
			t.Errorf("local read before the suspension (+%v): hit=%v new=%v, want the old listing from the cache", r.start, r.hit, r.isNew)
		case r.start >= resumedAt && (!r.hit || !r.isNew):
			t.Errorf("local read after the commit point (+%v): hit=%v new=%v, want the maintained listing from the cache", r.start, r.hit, r.isNew)
		}
	}
	if counts["through hit new"]+counts["through hit old"] != 0 {
		t.Errorf("pass-through reads hit a cache: %v", counts)
	}
	if counts["local miss new"] == 0 || counts["through miss old"] == 0 || counts["through miss new"] == 0 {
		t.Errorf("fixture: the window was not sampled on both sides: %v", counts)
	}
	// The fsync runs beside the commit's row service, so the write ends
	// 100µs (five samples) sooner: five local reads hit the new listing
	// instead of missing into the window.
	want := map[string]int{"local hit old": 23, "local miss new": 20, "local hit new": 107, "through miss old": 19, "through miss new": 131}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("reads by outcome = %v, want %v (virtual time: exact on any GOMAXPROCS)", counts, want)
	}
	if db.HeldLocks() != 0 {
		t.Fatalf("locks leaked: %d", db.HeldLocks())
	}
}

// TestListingDuringSubtreeOp sweeps the start of an ls across a directory
// delete and a directory mv, at 250 µs steps over 12 ms of virtual time on
// the default store and coordinator latencies: a peer of the writer lists the
// directory the operation changes — the root's parent for delete /p/x, the
// destination for mv /p/x /q/x — and afterwards both engines must list what
// the store holds. A listing filled between the subtree's prefix INV and the
// transaction that deletes or relinks the root is stale unless that
// transaction invalidates it under its own locks.
func TestListingDuringSubtreeOp(t *testing.T) {
	const step, offsets = 250 * time.Microsecond, 48
	for _, c := range []struct {
		op         namespace.OpType
		dest, list string
	}{
		{namespace.OpDelete, "", "/p"},
		{namespace.OpMv, "/q/x", "/q"},
	} {
		t.Run(c.op.String(), func(t *testing.T) {
			var stale []time.Duration
			for i := 0; i < offsets; i++ {
				at := time.Duration(i) * step
				clk := clock.NewSim()
				clock.Run(clk, func() {
					st := ndb.New(clk, ndb.DefaultConfig())
					zk := coordinator.NewZK(clk, coordinator.DefaultConfig())
					ring := partition.NewRing(1, 0)
					cfg := DefaultEngineConfig()
					cfg.OpCPUCost = 0
					var writer, lister *Engine
					for j, e := range []**Engine{&writer, &lister} {
						id := fmt.Sprintf("nn-%d", j)
						*e = NewEngine(id, 0, clk, st, ring, zk, nil, cfg)
						zk.Register(0, id, (*e).HandleInvalidation)
					}
					for _, p := range []string{"/p/x/sub", "/q"} {
						mustOK(t, writer, namespace.OpMkdirs, p, "")
					}
					for _, p := range []string{"/p/y", "/p/x/f", "/p/x/sub/g", "/q/z"} {
						mustOK(t, writer, namespace.OpCreate, p, "")
					}
					g := clock.NewGroup(clk)
					g.Go(func() { mustOK(t, writer, c.op, "/p/x", c.dest) })
					g.Go(func() {
						clk.Sleep(at)
						mustOK(t, lister, namespace.OpLs, c.list, "")
					})
					g.Wait()
					for _, e := range []*Engine{writer, lister} {
						ls := mustOK(t, e, namespace.OpLs, c.list, "")
						if got, want := entryNames(ls), storeNames(t, st, c.list); !slices.Equal(got, want) {
							if e == lister {
								stale = append(stale, at)
							}
							t.Errorf("ls %s started +%v into %v /p/x: %s then lists %v (cache hit %v), store has %v",
								c.list, at, c.op, e.ID(), got, ls.CacheHit, want)
						}
					}
				})
				clk.Close()
			}
			if len(stale) > 0 {
				t.Errorf("%v: stale listing at %d of %d offsets: %v", c.op, len(stale), offsets, stale)
			}
		})
	}
}
