//go:build !race

package ndb

import (
	"runtime"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// The read side's store half copies no row and builds no key string. (Not
// under -race: the detector allocates.)
func TestReadPathAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		parent, path := namespace.RootID, ""
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			parent = addDir(t, db, parent, name)
			path += "/" + name
		}
		addFile(t, db, parent, "f")
		path += "/f"

		// The transaction alone — and nothing to clean the canonical path, per
		// row or per lock: the chain is the transaction's inline buffer, and
		// the split and the multi-get's per-shard counts are on the stack.
		if got := testing.AllocsPerRun(100, func() {
			tx := db.Begin("nn")
			if chain, err := tx.ResolvePathBatched(path, store.LockShared, store.LockShared); err != nil || len(chain) != 7 {
				t.Fatalf("resolve %s: %d rows, %v", path, len(chain), err)
			}
			tx.Abort()
		}); got != 1 {
			t.Errorf("shared-lock ResolvePathBatched of a depth-6 path: %v allocs, want 1", got)
		}
		// A pass-through resolution outside any transaction: the chain alone.
		if got := testing.AllocsPerRun(100, func() {
			if chain, err := db.ResolvePathBatched(path, nil); err != nil || len(chain) != 7 {
				t.Fatalf("lock-free resolve %s: %d rows, %v", path, len(chain), err)
			}
		}); got != 1 {
			t.Errorf("lock-free DB.ResolvePathBatched of a depth-6 path: %v allocs, want 1", got)
		}
		// A listing miss: the transaction alone — the chain and the children
		// are the transaction's inline buffers, the listed rows are the
		// store's own, handed out under a shared lock, and they come out of
		// the directory's child list in name order.
		if got := testing.AllocsPerRun(100, func() {
			tx := db.Begin("nn")
			if chain, kids, err := tx.ListPathBatched("/a/b/c/d/e", store.LockShared); err != nil || len(chain) != 6 || len(kids) != 1 {
				t.Fatalf("list /a/b/c/d/e: %d rows, %d children, %v", len(chain), len(kids), err)
			}
			tx.Abort()
		}); got != 1 {
			t.Errorf("shared-lock ListPathBatched of a depth-5 directory: %v allocs, want 1", got)
		}
		// A rename's lock phase: the transaction alone — every row, exclusive
		// ones included, is the store's own, so /a/b is one pointer in both
		// chains; the paths, plans, their splits and the per-shard counts are
		// on the stack, the reply is two values, and its chains and the lock
		// set (11 rows) are the transaction's inline buffers.
		if got := testing.AllocsPerRun(100, func() {
			tx := db.Begin("nn")
			src, dest, err := tx.LockPaths(path, "/a/b/g")
			if err != nil || src.Target == nil || dest.Target != nil || src.Chain[2] != dest.Chain[2] {
				t.Fatalf("lock %s and /a/b/g: %+v, %+v, %v; want /a/b one pointer in both chains", path, src, dest, err)
			}
			tx.Abort()
		}); got != 1 {
			t.Errorf("LockPaths of a depth-6 and a depth-3 path: %v allocs, want 1", got)
		}

		lm, tx := db.locks, &lockTx{owner: "nn"}
		keys := []rowKey{inodeKey(1), inodeKey(2), inodeKey(3), childKey(3, "x"), inodeKey(4), childKey(4, "y"), kvKey("t", "k"), inodeKey(5)}
		cycle := func() {
			for i, k := range keys {
				if _, err := lm.Acquire(tx, k, i%2 == 1); err != nil {
					t.Fatal(err)
				}
			}
			lm.ReleaseAll(tx)
		}
		cycle() // the table parks eight rowLocks
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("uncontended acquire and release of 8 rows: %v allocs, want 0", got)
		}

		// A contended acquire parks a waiter until the holder releases: the
		// waiter and its grant event are the table's spares, and the spawn
		// and join are the clock's (a prebuilt fn, one Event per run).
		holder, waiter := &lockTx{owner: "a"}, &lockTx{owner: "b"}
		done := make([]*clock.Event, 101)
		for i := range done {
			done[i] = clock.NewEvent(clk)
		}
		run := 0
		wait := func() {
			if w, err := lm.Acquire(waiter, keys[0], true); err != nil || w != time.Millisecond {
				t.Errorf("contended acquire: waited %v, %v; want 1ms, granted", w, err)
			}
			lm.ReleaseAll(waiter)
			done[run].Set()
		}
		contend := func() {
			if _, err := lm.Acquire(holder, keys[0], true); err != nil {
				t.Fatal(err)
			}
			clock.Go(clk, wait)
			clk.Sleep(time.Millisecond)
			lm.ReleaseAll(holder)
			done[run].Wait()
			run++
		}
		if got := testing.AllocsPerRun(100, contend); got != 0 {
			t.Errorf("warm contended acquire and release: %v allocs, want 0", got)
		}
	})
}

// The durability tier's costs follow what changed, not the store's size: a
// one-row commit encodes its frame into a reused buffer, a round with no
// dirty rows writes only the metadata, and truncation reads frame headers
// only, copying just the tail of each log it cuts.
func TestDurablePathAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 4, zeroLSM())
		db := New(clk, durableCfg(d))
		id := addFile(t, db, namespace.RootID, "f")
		row := &namespace.INode{ID: id, ParentID: namespace.RootID, Name: "f", Perm: namespace.PermDefaultFile}
		commit := func() {
			tx := db.Begin("nn")
			if err := tx.PutINode(row); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			d.cropWAL(d.walShard(d.LastLSN()), 0) // keep the log's capacity: no growth
		}
		// The transaction alone: its write set is its inline buffer, the
		// store takes the row over without a copy, the record and the
		// encode buffer are the store's reused ones, and a commit span no
		// one traces gets no detail.
		commit()
		if got := testing.AllocsPerRun(100, commit); got != 1 {
			t.Errorf("one-row durable commit: %v allocs, want 1", got)
		}

		// Each shard's copy of the metadata into its memtable and each
		// shard's metadata read for the truncation floor.
		db.Checkpoint()
		if got := testing.AllocsPerRun(100, func() { db.Checkpoint() }); got != 8 {
			t.Errorf("checkpoint round with no dirty rows: %v allocs, want 8", got)
		}

		const records = 4096
		full := make([][]byte, d.Shards())
		for lsn := uint64(1); lsn <= records; lsn++ {
			s := d.walShard(lsn)
			full[s] = appendRecord(full[s], &walRecord{lsn: lsn, puts: []*namespace.INode{row}})
		}
		truncate := func(through uint64) func() {
			return func() {
				copy(d.wals, full) // truncation replaces a log, never writes into it
				d.truncateThrough(through)
			}
		}
		if got := testing.AllocsPerRun(100, truncate(records/2)); got != float64(d.Shards()) {
			t.Errorf("truncating half of a %d-record log: %v allocs, want %d (one tail copy per shard)", records, got, d.Shards())
		}
		if got := testing.AllocsPerRun(100, truncate(records)); got != 0 {
			t.Errorf("truncating all of a %d-record log: %v allocs, want 0", records, got)
		}
	})
}

// roundAllocs is testing.AllocsPerRun for checkpoint rounds alone: before
// each round, dirty marks the rows it writes, uncounted.
func roundAllocs(db *DB, dirty func()) float64 {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		dirty()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		db.Checkpoint()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	return float64(mallocs / runs)
}

// A dirty checkpoint round allocates per round and per shard, never per
// row: its row slices, sort scratch, key string, value buffer and batch,
// each shard's two fresh dirty sets, metadata copy and metadata read. The rows' values
// go to the stores in the one buffer, and rows the stores already hold
// grow no memtable.
func TestDirtyCheckpointRoundAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db, dirty := dirtyRoundDB(t, clk)
		small := roundAllocs(db, func() { dirty(64) })
		large := roundAllocs(db, func() { dirty(1024) })
		if small != large || small != 22 {
			t.Errorf("checkpoint round: %v allocs with 64 dirty rows, %v with 1024, want 22 for both", small, large)
		}
	})
}
