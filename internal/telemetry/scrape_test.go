package telemetry

import (
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// TestScrapeEmptyRegistry pins the zero-instrument edge case: scraping
// a registry with nothing registered yields empty-but-valid snapshots,
// and the loop runs without issue.
func TestScrapeEmptyRegistry(t *testing.T) {
	clk := simtest.New(t)
	reg := NewRegistry()
	sc := NewScraper(clk, reg, time.Second)
	snap := sc.ScrapeNow()
	if len(snap.Values) != 0 {
		t.Fatalf("empty registry snapshot has %d series", len(snap.Values))
	}
	if snap.VirtualUS() != 0 {
		t.Fatalf("snapshot t_us = %d, want 0 at epoch", snap.VirtualUS())
	}
	if got := len(sc.Snapshots()); got != 1 {
		t.Fatalf("accumulated %d snapshots, want 1", got)
	}
	// Registering after the first scrape shows up in the next one.
	reg.Counter("lambdafs_test_late_total").Inc()
	if snap = sc.ScrapeNow(); snap.Values["lambdafs_test_late_total"] != 1 {
		t.Fatalf("late-registered instrument missing: %v", snap.Values)
	}
}

// TestOnSnapshotPanicIsolated pins per-subscriber panic isolation: a
// panicking hook is recovered and counted, and the other subscribers
// (registered before and after it) still observe every snapshot.
func TestOnSnapshotPanicIsolated(t *testing.T) {
	clk := simtest.New(t)
	reg := NewRegistry()
	reg.Gauge("lambdafs_test_g").Set(1)
	sc := NewScraper(clk, reg, time.Second)

	var before, after int
	sc.OnSnapshot(func(Snapshot) { before++ })
	sc.OnSnapshot(func(Snapshot) { panic("broken dashboard") })
	sc.OnSnapshot(func(s Snapshot) {
		after++
		if s.Values["lambdafs_test_g"] != 1 {
			t.Errorf("subscriber got snapshot without values")
		}
	})

	for i := 0; i < 3; i++ {
		sc.ScrapeNow()
	}
	if before != 3 || after != 3 {
		t.Fatalf("subscribers saw %d/%d snapshots, want 3/3", before, after)
	}
	if got := sc.HookPanics(); got != 3 {
		t.Fatalf("HookPanics = %d, want 3", got)
	}
}

// TestSetIntervalMidRun reconfigures the scrape interval while the loop
// is live on a Sim clock and checks the cadence actually changes.
// Exercised under -race by check.sh.
func TestSetIntervalMidRun(t *testing.T) {
	clk := simtest.New(t)
	reg := NewRegistry()
	reg.Counter("lambdafs_test_ticks_total")
	sc := NewScraper(clk, reg, time.Second)

	clock.Run(clk, func() {
		sc.Start()
		clk.Sleep(4*time.Second + time.Millisecond)
		if got := len(sc.Snapshots()); got != 4 {
			t.Errorf("1s cadence: %d snapshots after 4s, want 4", got)
		}
		sc.SetInterval(250 * time.Millisecond)
		if sc.Interval() != 250*time.Millisecond {
			t.Errorf("Interval() = %v after SetInterval", sc.Interval())
		}
		// The in-flight 1s tick completes first, then the new cadence
		// takes over: 1s + 12×250ms ≈ 13 more snapshots in 4s.
		clk.Sleep(4 * time.Second)
		if got := len(sc.Snapshots()); got < 12 || got > 18 {
			t.Errorf("250ms cadence: %d snapshots total, want ~17", got)
		}
		sc.Stop()
	})

	// Invalid reconfigurations are ignored.
	sc.SetInterval(0)
	sc.SetInterval(-time.Second)
	if sc.Interval() != 250*time.Millisecond {
		t.Fatalf("invalid SetInterval changed interval to %v", sc.Interval())
	}
}

// TestSetIntervalConcurrent hammers SetInterval/ScrapeNow/OnSnapshot
// from multiple host goroutines while the scrape loop ticks on the clock —
// a pure race-detector target.
func TestSetIntervalConcurrent(t *testing.T) {
	clk := simtest.New(t)
	reg := NewRegistry()
	ctr := reg.Counter("lambdafs_test_ops_total")
	sc := NewScraper(clk, reg, time.Millisecond)
	sc.OnSnapshot(func(Snapshot) {})
	sc.Start()
	clock.Go(clk, func() { clk.Sleep(100 * time.Millisecond) }) // the loop ticks while somebody waits
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					sc.SetInterval(time.Duration(g+1) * time.Millisecond)
				case 1:
					sc.ScrapeNow()
				case 2:
					ctr.Inc()
				case 3:
					_ = sc.Interval()
				}
			}
		}(g)
	}
	wg.Wait()
	sc.Stop()
	if len(sc.Snapshots()) == 0 {
		t.Fatal("no snapshots accumulated")
	}
}
