package datanode

import (
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

func newStore(clk *clock.Sim) *ndb.DB {
	cfg := ndb.DefaultConfig()
	cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
	return ndb.New(clk, cfg)
}

func TestPublishAndDiscover(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		dn := New(clk, st, "dn1", time.Hour)
		dn.AddBlock(1, 128)
		dn.AddBlock(2, 64)
		if err := dn.Publish(); err != nil {
			t.Fatal(err)
		}
		reports, err := Discover(clk, st, "test", 0)
		if err != nil || len(reports) != 1 {
			t.Fatalf("discover = %v, %v", reports, err)
		}
		r := reports[0]
		if r.ID != "dn1" || r.Blocks != 2 || r.Used != 192 {
			t.Fatalf("report = %+v", r)
		}
		if dn.BlockCount() != 2 || dn.ID() != "dn1" {
			t.Fatal("accessors wrong")
		}
	})
}

// TestStartStopLoop: the loop publishes at once and then every interval, at
// exact virtual instants, until Stop.
func TestStartStopLoop(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		dn := New(clk, st, "dn-loop", 10*time.Millisecond)
		published := func() time.Duration {
			reports, err := Discover(clk, st, "test", 0)
			if err != nil || len(reports) != 1 {
				t.Fatalf("discover = %v, %v", reports, err)
			}
			return reports[0].Timestamp.Sub(clock.Epoch)
		}
		dn.Start()
		clk.Sleep(25 * time.Millisecond)
		if at := published(); at != 20*time.Millisecond {
			t.Fatalf("latest report stamped %v at 25ms, want 20ms", at)
		}
		dn.Stop()
		dn.Stop() // idempotent
		clk.Sleep(time.Second)
		if at := published(); at != 20*time.Millisecond {
			t.Fatalf("a stopped loop published at %v", at)
		}
	})
}

func TestDiscoverDropsStale(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		dn := New(clk, st, "dn-old", time.Hour)
		if err := dn.Publish(); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(10 * time.Minute)
		fresh, _ := Discover(clk, st, "t", time.Hour)
		if len(fresh) != 1 {
			t.Fatal("fresh report dropped")
		}
		stale, _ := Discover(clk, st, "t", time.Minute)
		if len(stale) != 0 {
			t.Fatal("stale report kept")
		}
	})
}

func TestViewRefreshAndTTL(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		for _, id := range []string{"dn1", "dn2", "dn3"} {
			dn := New(clk, st, id, time.Hour)
			if err := dn.Publish(); err != nil {
				t.Fatal(err)
			}
		}
		v := NewView(clk, st, "nn", time.Minute, 2)
		if got := len(v.Live()); got != 3 {
			t.Fatalf("live = %d", got)
		}
		// A new DataNode appears; the view must not see it until TTL expiry.
		dn4 := New(clk, st, "dn4", time.Hour)
		if err := dn4.Publish(); err != nil {
			t.Fatal(err)
		}
		if got := len(v.Live()); got != 3 {
			t.Fatalf("TTL cache bypassed: live = %d", got)
		}
		clk.Sleep(2 * time.Minute)
		if got := len(v.Live()); got != 4 {
			t.Fatalf("view not refreshed after TTL: %d", got)
		}
	})
}

func TestPickLocations(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		for _, id := range []string{"a", "b", "c"} {
			dn := New(clk, st, id, time.Hour)
			if err := dn.Publish(); err != nil {
				t.Fatal(err)
			}
		}
		v := NewView(clk, st, "nn", time.Hour, 2)
		locs := v.PickLocations()
		if len(locs) != 2 || locs[0] == locs[1] {
			t.Fatalf("locations = %v", locs)
		}
		// Round-robin rotates the starting node.
		locs2 := v.PickLocations()
		if locs2[0] == locs[0] {
			t.Fatalf("round robin did not rotate: %v then %v", locs, locs2)
		}
		// Replication larger than fleet size clamps.
		v2 := NewView(clk, st, "nn", time.Hour, 10)
		if got := len(v2.PickLocations()); got != 3 {
			t.Fatalf("clamped locations = %d", got)
		}
	})
}

func TestPickLocationsEmptyFleet(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		st := newStore(clk)
		v := NewView(clk, st, "nn", time.Hour, 3)
		if locs := v.PickLocations(); locs != nil {
			t.Fatalf("locations from empty fleet: %v", locs)
		}
	})
}
