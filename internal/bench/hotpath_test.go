package bench

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func tempBaselineFile(t *testing.T, b *HotpathBaseline) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaselineFile(path, b); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	return path
}

// cloneBaseline deep-copies via the JSON round trip the gate itself uses.
func cloneBaseline(t *testing.T, b *HotpathBaseline) *HotpathBaseline {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out HotpathBaseline
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &out
}

// TestHotpathBaselineGate measures a tiny baseline once and then drives
// CheckHotpathBaseline four ways: an honest baseline must pass, a
// deliberately-deflated allocs_per_op fixture must fail mentioning
// allocs, deflated reads/op and hops/op fixtures must fail naming the
// count, and a v2 file must be rejected with the regenerate command.
func TestHotpathBaselineGate(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures the hotpath experiment")
	}
	opts := Options{Scale: Tiny, Seed: 1, Out: io.Discard}
	cur := HotpathMeasure(opts)

	ls := cur.Scenarios["ls_miss"]
	if ls.AllocsPerOp <= 2*hotpathAllocsSlack {
		t.Fatalf("ls_miss allocs/op = %.0f, too small for the deflation fixture to trip the gate",
			ls.AllocsPerOp)
	}
	if ls.LockWaitUsPerOp < 0 {
		t.Fatalf("negative lock-wait/op %.1f", ls.LockWaitUsPerOp)
	}

	t.Run("honest baseline passes", func(t *testing.T) {
		path := tempBaselineFile(t, cur)
		if err := CheckHotpathBaseline(path, Options{Out: io.Discard}); err != nil {
			t.Fatalf("honest baseline failed the gate: %v", err)
		}
	})

	t.Run("deflated allocs fixture fails", func(t *testing.T) {
		regressed := cloneBaseline(t, cur)
		// A committed baseline claiming near-zero allocations makes the
		// current (honest) measurement look like an allocation regression.
		regressed.Scenarios["ls_miss"].AllocsPerOp = 0
		path := tempBaselineFile(t, regressed)
		err := CheckHotpathBaseline(path, Options{Out: io.Discard})
		if err == nil {
			t.Fatal("deflated allocs baseline passed the gate")
		}
		if !strings.Contains(err.Error(), "allocs/op") {
			t.Fatalf("gate failure does not mention allocs/op: %v", err)
		}
	})

	t.Run("deflated store-count fixtures fail", func(t *testing.T) {
		// The counts are exact, so a committed baseline claiming one round
		// trip fewer makes the honest measurement a regression.
		for field, deflate := range map[string]func(*HotpathScenario){
			"ndb reads/op":    func(sc *HotpathScenario) { sc.NDBReadsPerOp-- },
			"resolve hops/op": func(sc *HotpathScenario) { sc.ResolveHopsPerOp-- },
		} {
			regressed := cloneBaseline(t, cur)
			deflate(regressed.Scenarios["write_storm"])
			err := CheckHotpathBaseline(tempBaselineFile(t, regressed), Options{Out: io.Discard})
			if err == nil || !strings.Contains(err.Error(), "write_storm: "+field) {
				t.Fatalf("deflated %s baseline: gate said %v", field, err)
			}
		}
	})

	t.Run("inflated virtual-column fixtures fail", func(t *testing.T) {
		// Exact, not one-sided: a committed file that claims a slower or
		// more contended run than the tree measures is as stale as one that
		// claims a faster one.
		for field, inflate := range map[string]func(*HotpathScenario){
			"p99_us":          func(sc *HotpathScenario) { sc.P99Us++ },
			"lock-wait us/op": func(sc *HotpathScenario) { sc.LockWaitUsPerOp++ },
			"virtual_wall_us": func(sc *HotpathScenario) { sc.VirtualWallUs++ },
		} {
			stale := cloneBaseline(t, cur)
			inflate(stale.Scenarios["subtree_mv"])
			err := CheckHotpathBaseline(tempBaselineFile(t, stale), Options{Out: io.Discard})
			if err == nil || !strings.Contains(err.Error(), "subtree_mv: "+field) {
				t.Fatalf("inflated %s baseline: gate said %v", field, err)
			}
		}
	})

	t.Run("v2 file rejected", func(t *testing.T) {
		stale := cloneBaseline(t, cur)
		stale.Schema = "lambdafs-hotpath-baseline/v2"
		path := tempBaselineFile(t, stale)
		err := CheckHotpathBaseline(path, Options{Out: io.Discard})
		if err == nil || !strings.Contains(err.Error(), "schema") ||
			!strings.Contains(err.Error(), "-baseline hotpath") {
			t.Fatalf("v2 schema not rejected with a regenerate hint: %v", err)
		}
	})
}
