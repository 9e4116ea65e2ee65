package ndb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// setFields names the fields of t that differ from their zero value.
func setFields(t *tx) []string {
	v := reflect.ValueOf(t).Elem()
	var set []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			set = append(set, v.Type().Field(i).Name)
		}
	}
	return set
}

// TestRunTxReusesAnEmptiedTransaction: RunTx releases each attempt's
// transaction, the next RunTx on the store gets the same one back, and it
// starts empty. The first write dirties every part of a transaction — an
// indexed write set, both KV maps, a commit hook, the exclusive flag, the
// inline chain buffer, the lock holdings and a trace context — so a reset
// that forgets any of them shows, both in the parked transaction (which must
// keep nothing alive: the hooks' room it keeps is cleared) and in the one
// handed out again.
func TestRunTxReusesAnEmptiedTransaction(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		dir := addDir(t, db, namespace.RootID, "d")
		tc := trace.New(clk, trace.Config{}).StartTrace("create", "/d/f", "c0")
		var first *tx
		hooked := false
		err := store.RunTx(db, "nn-a", tc, func(stx store.Tx) error {
			first = stx.(*tx)
			if _, err := stx.LockPath("/d/f"); err != nil {
				return err
			}
			for i := range indexFrom {
				if err := stx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: dir, Name: fmt.Sprintf("f%d", i)}); err != nil {
					return err
				}
			}
			if err := stx.KVPut(store.TableSubtreeOps, "kept", []byte("v")); err != nil {
				return err
			}
			if err := stx.KVDelete(store.TableSubtreeOps, "gone"); err != nil {
				return err
			}
			stx.AtCommitPoint(func(committed bool) { hooked = committed })
			if first.index == nil || first.kvPuts == nil || first.kvDels == nil || len(first.atCommit) != 1 ||
				!first.exclusive || !first.lockedOut || first.tc != tc || len(first.lt.held) == 0 {
				t.Fatalf("the write does not dirty every part of its transaction: %v set", setFields(first))
			}
			return nil
		})
		if err != nil || !hooked {
			t.Fatalf("first RunTx: %v, hook ran %v", err, hooked)
		}
		if n := len(db.txFree); n != 1 || db.txFree[0] != first {
			t.Fatalf("after RunTx the free list holds %d transactions, want the one it ran", n)
		}
		if set := setFields(first); !reflect.DeepEqual(set, []string{"db", "atCommit"}) {
			t.Errorf("the parked transaction keeps %v, want only its store and its hooks' room", set)
		}
		if hooks := first.atCommit; len(hooks) != 0 || cap(hooks) != 1 || hooks[:1][0] != nil {
			t.Errorf("the parked transaction's hooks: len %d, cap %d; want the one hook's room, emptied", len(hooks), cap(hooks))
		}

		err = store.RunTx(db, "nn-b", nil, func(stx store.Tx) error {
			second := stx.(*tx)
			if second != first {
				t.Fatal("the second RunTx got a new transaction, want the released one")
			}
			if set := setFields(second); !reflect.DeepEqual(set, []string{"db", "lt", "atCommit"}) || !reflect.DeepEqual(second.lt, lockTx{owner: "nn-b"}) {
				t.Errorf("the reused transaction starts with %v set and lock record %+v, want only its store, owner and hooks' room", set, second.lt)
			}
			if n := second.writeCount(); n != 0 || len(second.atCommit) != 0 {
				t.Errorf("the reused transaction starts with %d buffered writes and %d hooks", n, len(second.atCommit))
			}
			kv, err := stx.KVScan(store.TableSubtreeOps, "")
			if err != nil || len(kv) != 1 || string(kv["kept"]) != "v" {
				t.Errorf("the reused transaction scans %v, %v; want the committed row alone", kv, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := db.HeldLocks(); n != 0 {
			t.Errorf("%d row locks held after both transactions", n)
		}
	})
}

// TestUnreleasedTxIsNeverReused: a transaction from plain Begin that is
// never released keeps its ended state — Commit, then Abort as a no-op, and
// ErrTxDone from then on — while RunTx recycles transactions of its own
// around it.
func TestUnreleasedTxIsNeverReused(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		raw := db.Begin("raw")
		if err := raw.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: "f"}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, raw)
		raw.Abort() // after Commit: a no-op
		for i := range 3 {
			err := store.RunTx(db, "nn", nil, func(stx store.Tx) error {
				if stx == raw {
					t.Fatalf("RunTx %d was handed the unreleased transaction", i)
				}
				_, err := stx.LockPath(fmt.Sprintf("/g%d", i))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(db.txFree) != 1 {
			t.Fatalf("free list holds %d transactions, want RunTx's one", len(db.txFree))
		}
		if err := raw.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: "g"}); !errors.Is(err, store.ErrTxDone) {
			t.Errorf("PutINode on the committed transaction: %v, want ErrTxDone", err)
		}
		if _, err := raw.LockPath("/f"); !errors.Is(err, store.ErrTxDone) {
			t.Errorf("LockPath on the committed transaction: %v, want ErrTxDone", err)
		}
		if err := raw.Commit(); !errors.Is(err, store.ErrTxDone) {
			t.Errorf("second Commit: %v, want ErrTxDone", err)
		}
		if n := db.Stats().Aborts; n != 0 {
			t.Errorf("%d aborts counted, want none", n)
		}
	})
}

// TestConcurrentRunTxShareTheFreeList: writers on clock goroutines, and a
// reader releasing its transactions as the read path does, recycle
// transactions through one store at once, each interleaving inside its
// transaction; every write lands, no lock stays held, and the free list
// ends no longer than the number of transactions ever open together. Run
// under -race.
func TestConcurrentRunTxShareTheFreeList(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		const writers, writes = 4, 16
		dirs := make([]namespace.INodeID, writers)
		for w := range dirs {
			dirs[w] = addDir(t, db, namespace.RootID, fmt.Sprintf("d%d", w))
		}
		g := clock.NewGroup(clk)
		for w := range writers {
			g.Go(func() {
				for i := range writes {
					err := store.RunTx(db, fmt.Sprintf("nn-%d", w), nil, func(stx store.Tx) error {
						locked, err := stx.LockPath(fmt.Sprintf("/d%d/f%d", w, i))
						if err != nil {
							return err
						}
						clk.Sleep(time.Microsecond) // the others run meanwhile
						parent := locked.Chain[len(locked.Chain)-1]
						if err := stx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: parent.ID, Name: fmt.Sprintf("f%d", i)}); err != nil {
							return err
						}
						return stx.PutINode(parent)
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		g.Go(func() {
			for i := range writers * writes {
				stx := db.BeginTraced("reader", nil)
				if _, err := stx.ResolvePathBatched(fmt.Sprintf("/d%d", i%writers), store.LockShared, store.LockShared); err != nil {
					t.Error(err)
				}
				clk.Sleep(time.Microsecond)
				db.Release(stx)
			}
		})
		g.Wait()
		for w, dir := range dirs {
			if n := db.children[dir].Len(); n != writes {
				t.Errorf("/d%d holds %d files, want %d", w, n, writes)
			}
		}
		if n := db.HeldLocks(); n != 0 {
			t.Errorf("%d row locks held after every transaction ended", n)
		}
		if n := len(db.txFree); n == 0 || n > writers+1 {
			t.Errorf("free list holds %d transactions, want 1 to %d", n, writers+1)
		}
	})
}

// TestReleasedTxKeepsBoundedListingRoom: a listing past the inline buffer
// fills heap storage the transaction keeps when it is released, emptied,
// and the next listing on the recycled transaction writes into the same
// storage; a directory of more than keptKids children leaves nothing kept,
// so a parked transaction never pins a big directory's listing.
func TestReleasedTxKeepsBoundedListingRoom(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		var rows []*namespace.INode
		mkdir := func(name string, files int) {
			dir := &namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: name, IsDir: true}
			rows = append(rows, dir)
			for i := range files {
				rows = append(rows, &namespace.INode{ID: db.NextID(), ParentID: dir.ID, Name: fmt.Sprintf("f%04d", i)})
			}
		}
		mkdir("small", 40)
		mkdir("big", keptKids+1)
		db.Preload(rows)
		list := func(path string, want int) *tx {
			stx := db.BeginTraced("nn", nil)
			if _, kids, err := stx.ListPathBatched(path, store.LockShared); err != nil || len(kids) != want {
				t.Fatalf("ls %s: %d children, %v; want %d", path, len(kids), err, want)
			}
			db.Release(stx)
			return stx.(*tx)
		}
		parked := list("/small", 40)
		kept := parked.kids[:cap(parked.kids)]
		if set := setFields(parked); !reflect.DeepEqual(set, []string{"db", "kids"}) || len(parked.kids) != 0 || len(kept) < 40 {
			t.Fatalf("after ls /small the parked transaction keeps %v, %d of %d children's room; want its store and the room, empty",
				set, len(parked.kids), cap(parked.kids))
		}
		for i, n := range kept {
			if n != nil {
				t.Fatalf("the kept room still holds child %d", i)
			}
		}
		if again := list("/small", 40); again != parked || &again.kids[:1][0] != &kept[0] {
			t.Fatal("a second ls /small on the recycled transaction did not reuse its room")
		}
		if parked = list("/big", keptKids+1); parked.kids != nil {
			t.Errorf("after ls /big the parked transaction keeps room for %d children, want none past %d", cap(parked.kids), keptKids)
		}
	})
}
