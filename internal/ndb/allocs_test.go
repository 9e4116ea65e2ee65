//go:build !race

package ndb

import (
	"testing"

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

		// The transaction, the split, the multi-get's per-shard counts, the
		// chain — and nothing to clean the canonical path, per row or per lock.
		if got := testing.AllocsPerRun(100, func() {
			tx := db.Begin("nn")
			if chain, err := tx.ResolvePathBatched(path, store.LockShared, store.LockShared); err != nil || len(chain) != 7 {
				t.Fatalf("resolve %s: %d rows, %v", path, len(chain), err)
			}
			tx.Abort()
		}); got != 4 {
			t.Errorf("shared-lock ResolvePathBatched of a depth-6 path: %v allocs, want 4", got)
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
	})
}
