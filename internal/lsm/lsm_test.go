package lsm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

func fastDB(clk *clock.Sim, memEntries int) *DB {
	cfg := DefaultConfig()
	cfg.MemtableEntries = memEntries
	cfg.PutLatency = 0
	cfg.ProbeLatency = 0
	cfg.FlushPerEntry = 0
	cfg.CompactPerEntry = 0
	return New(clk, cfg)
}

func TestPutGet(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 1024)
		db.Put("a", []byte("1"))
		db.Put("b", []byte("2"))
		if v, ok := db.Get("a"); !ok || string(v) != "1" {
			t.Fatalf("get a = %q %v", v, ok)
		}
		if _, ok := db.Get("missing"); ok {
			t.Fatal("phantom key")
		}
		db.Put("a", []byte("updated"))
		if v, _ := db.Get("a"); string(v) != "updated" {
			t.Fatalf("overwrite lost: %q", v)
		}
	})
}

func TestDeleteTombstone(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 4)
		db.Put("k", []byte("v"))
		db.Delete("k")
		if _, ok := db.Get("k"); ok {
			t.Fatal("deleted key visible")
		}
		// Force the tombstone through flush and compaction.
		for i := 0; i < 100; i++ {
			db.Put(fmt.Sprintf("fill%03d", i), []byte("x"))
		}
		if _, ok := db.Get("k"); ok {
			t.Fatal("deleted key resurrected after compaction")
		}
	})
}

func TestFlushMovesDataToL0(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 8)
		for i := 0; i < 8; i++ {
			db.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		}
		l0, _ := db.TableCount()
		if l0 == 0 {
			t.Fatal("no flush at memtable limit")
		}
		for i := 0; i < 8; i++ {
			if v, ok := db.Get(fmt.Sprintf("k%d", i)); !ok || v[0] != byte(i) {
				t.Fatalf("k%d lost after flush", i)
			}
		}
		if db.Stats().Flushes == 0 {
			t.Fatal("flush not counted")
		}
	})
}

func TestCompactionBoundsL0(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 4)
		for i := 0; i < 400; i++ {
			db.Put(fmt.Sprintf("key%04d", i), []byte("v"))
		}
		l0, deeper := db.TableCount()
		if l0 > db.cfg.L0CompactTrigger {
			t.Fatalf("L0 grew to %d tables", l0)
		}
		if deeper == 0 {
			t.Fatal("nothing compacted to deeper levels")
		}
		if db.Stats().Compactions == 0 {
			t.Fatal("compactions not counted")
		}
		// Everything still readable.
		for i := 0; i < 400; i++ {
			if _, ok := db.Get(fmt.Sprintf("key%04d", i)); !ok {
				t.Fatalf("key%04d lost in compaction", i)
			}
		}
	})
}

func TestNewestVersionWinsAcrossTables(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 4)
		for round := 0; round < 10; round++ {
			db.Put("hot", []byte{byte(round)})
			for i := 0; i < 6; i++ { // push older versions into tables
				db.Put(fmt.Sprintf("pad%d-%d", round, i), []byte("x"))
			}
		}
		if v, ok := db.Get("hot"); !ok || v[0] != 9 {
			t.Fatalf("hot = %v %v, want newest version 9", v, ok)
		}
	})
}

func TestScanPrefixMerged(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 4)
		db.Put("dir/a", []byte("1"))
		db.Put("dir/b", []byte("2"))
		db.Put("other/c", []byte("3"))
		for i := 0; i < 20; i++ { // force tables
			db.Put(fmt.Sprintf("pad%d", i), []byte("x"))
		}
		db.Put("dir/b", []byte("2new"))
		db.Delete("dir/a")
		got := db.Scan("dir/")
		if len(got) != 1 || string(got["dir/b"]) != "2new" {
			t.Fatalf("scan = %v", got)
		}
	})
}

func TestFlushExplicit(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 1024)
		db.Put("x", []byte("y"))
		db.Flush()
		l0, _ := db.TableCount()
		if l0 != 1 {
			t.Fatalf("explicit flush left %d L0 tables", l0)
		}
		if v, ok := db.Get("x"); !ok || string(v) != "y" {
			t.Fatal("data lost on explicit flush")
		}
		db.Flush() // empty flush is a no-op
		if l0, _ := db.TableCount(); l0 != 1 {
			t.Fatal("empty flush created a table")
		}
	})
}

func TestModelEquivalenceRandomOps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Property: under random put/delete/get sequences with tiny memtables
		// (maximal flush/compaction churn), the DB matches a flat map.
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			db := fastDB(clk, 3)
			model := map[string]string{}
			keys := make([]string, 12)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			for op := 0; op < 300; op++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(3) {
				case 0:
					v := fmt.Sprintf("v%d", op)
					db.Put(k, []byte(v))
					model[k] = v
				case 1:
					db.Delete(k)
					delete(model, k)
				case 2:
					got, ok := db.Get(k)
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(got) != want) {
						return false
					}
				}
			}
			if db.Len() != len(model) {
				return false
			}
			for k, want := range model {
				if got, ok := db.Get(k); !ok || string(got) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentAccess(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 16)
		writers := clock.NewGroup(clk)
		for w := 0; w < 4; w++ {
			writers.Go(func() {
				for i := 0; i < 500; i++ {
					k := fmt.Sprintf("w%d-%d", w, i%50)
					db.Put(k, []byte{byte(i)})
					db.Get(k)
					if i%7 == 0 {
						db.Delete(k)
					}
				}
			})
		}
		writers.Wait()
		if db.Stats().Puts != 2000 {
			t.Fatalf("puts = %d", db.Stats().Puts)
		}
	})
}

func TestProbeLatencyCharged(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.MemtableEntries = 2
		cfg.ProbeLatency = 10 * 1000 * 1000 // 10ms
		cfg.PutLatency = 0
		cfg.FlushPerEntry = 0
		cfg.CompactPerEntry = 0
		db := New(clk, cfg)
		for i := 0; i < 8; i++ {
			db.Put(fmt.Sprintf("k%d", i), []byte("v"))
		}
		start := clk.Now()
		db.Get("absent") // probes every table
		if d := clk.Since(start); d < 10*1000*1000 {
			t.Fatalf("miss charged only %v", d)
		}
	})
}

func TestScanProbeLatencyCharged(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Regression: scans used to be free, which understated IndexFS
		// readdir latency. A scan consults every table, so it must charge
		// one ProbeLatency per L0 table and per non-empty deeper level,
		// advancing the virtual clock like Get does.
		cfg := DefaultConfig()
		cfg.MemtableEntries = 2
		cfg.ProbeLatency = 10 * 1000 * 1000 // 10ms
		cfg.PutLatency = 0
		cfg.FlushPerEntry = 0
		cfg.CompactPerEntry = 0
		db := New(clk, cfg)
		for i := 0; i < 8; i++ {
			db.Put(fmt.Sprintf("k%d", i), []byte("v"))
		}
		l0, deeper := db.TableCount()
		tables := l0 + deeper
		if tables == 0 {
			t.Fatal("setup produced no tables")
		}
		before := db.Stats()
		start := clk.Now()
		got := db.Scan("k")
		if len(got) != 8 {
			t.Fatalf("scan returned %d keys, want 8", len(got))
		}
		want := time.Duration(tables) * cfg.ProbeLatency
		if d := clk.Since(start); d != want {
			t.Fatalf("scan over %d tables charged %v, want %v", tables, d, want)
		}
		after := db.Stats()
		if after.Scans != before.Scans+1 {
			t.Fatalf("scan not counted: %d -> %d", before.Scans, after.Scans)
		}
		if after.Probes-before.Probes != uint64(tables) {
			t.Fatalf("scan probes = %d, want %d", after.Probes-before.Probes, tables)
		}
	})
}
