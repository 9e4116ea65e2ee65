//go:build !race

package lsm

import (
	"fmt"
	"runtime"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// distinctBatch returns n entries under distinct keys.
func distinctBatch(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: fmt.Sprintf("k%06d", i), Value: []byte("value")}
	}
	return es
}

// batchAllocs counts the objects one WriteBatch of es allocates into a
// fresh tree, the tree's construction uncounted.
func batchAllocs(clk *clock.Sim, es []Entry) uint64 {
	var db *DB
	return fewestAllocs(func() { db = fastDB(clk, 4096) }, func() { db.WriteBatch(es) })
}

// fewestAllocs counts the objects op allocates after an uncounted prep: the
// fewest of a few runs, since a collection op's garbage sets off may
// allocate besides.
func fewestAllocs(prep, op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	fewest := ^uint64(0)
	for i := 0; i < 5; i++ {
		prep()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}

// A Get allocates the copy it returns and nothing more, whether the key is
// in the memtable or in a table, and a miss allocates nothing. A run of
// MemtableEntries distinct keys into an empty tree allocates per table,
// never per entry: the sort order once per batch, and each table's header,
// data and offsets, and L0's list growing for each of the first three. A
// run into a memtable a flush emptied allocates its string alone: the
// memtable keeps its buckets across the flush.
func TestAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 4096)
		db.WriteBatch(distinctBatch(4096 + 1))
		for _, c := range []struct {
			what, key string
			want      float64
		}{
			{"a Get from a table", "k000001", 1},
			{"a Get from the memtable", "k004096", 1},
			{"a Get that misses", "zz", 0},
		} {
			if got := testing.AllocsPerRun(100, func() { db.Get(c.key) }); got != c.want {
				t.Errorf("%s: %v allocs, want %v", c.what, got, c.want)
			}
		}
		refill := fastDB(clk, 4096)
		run := distinctBatch(100)
		refill.WriteBatch(run) // the memtable grows to the run
		if got := fewestAllocs(refill.Flush, func() { refill.WriteBatch(run) }); got != 1 {
			t.Errorf("a WriteBatch of 100 entries into a memtable a flush emptied: %v allocs, want 1 (its run's string)", got)
		}
		for tables := 1; tables <= 3; tables++ {
			want := uint64(1 + 4*tables)
			if got := batchAllocs(clk, distinctBatch(tables*4096)); got != want {
				t.Errorf("a WriteBatch of %d tables' entries: %v allocs, want %v", tables, got, want)
			}
		}
	})
}
