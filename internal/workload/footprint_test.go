//go:build !race

package workload

import (
	"runtime"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

// liveHeap is the heap's live bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPreloadFootprint bounds what a preloaded namespace keeps live per
// row: the store's rows, child lists and row table, and the checkpoint its
// durability tier takes of them. The paths are the harness's and are live
// on both sides of the measurement, so they count in neither. A row keeps
// 308.6 bytes (x86-64, Go 1.24), and the bound is that plus 5 %; 366.8
// when the rows were filed in a map and each sstable entry had its own key
// and value headers, 518 when each block had its own location list, each
// directory a map of its children, each INode two time.Time fields and
// each checkpoint value fixed-width integers. (Not under -race: the
// detector's shadow state is heap too.)
func TestPreloadFootprint(t *testing.T) {
	const files, perDir, maxPerRow = 16384, 16, 324
	dirs, paths := GenerateNamespace(files/perDir, perDir)
	rows := len(dirs) + len(paths)
	simtest.Run(t, func(clk *clock.Sim) {
		before := liveHeap()
		cfg := ndb.DefaultConfig()
		cfg.Durable = ndb.NewDurable(clk, cfg.DataNodes, lsm.DefaultConfig())
		cfg.Durability = ndb.DefaultDurabilityConfig()
		db := ndb.New(clk, cfg)
		PreloadNDB(db, dirs, paths)
		perRow := float64(liveHeap()-before) / float64(rows)
		runtime.KeepAlive(db)
		t.Logf("%.1f bytes per row", perRow)
		if perRow > maxPerRow {
			t.Errorf("a preloaded row keeps %.1f bytes live, want at most %d", perRow, maxPerRow)
		}
	})
	runtime.KeepAlive(paths)
}
