package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMetricsArtifacts runs a miniature Spotify experiment with
// ArtifactDir set (the library form of `lambdafs-bench -out DIR`) and
// checks both artifacts: the Prometheus text dump must cover every
// instrumented subsystem, and the scraped snapshot series must be
// chronologically ordered virtual-time samples in which the hot-path
// counters actually advance.
func TestMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	opts.ArtifactDir = dir
	sp := spotifyParams{
		exp: "mini", base: 2000, duration: 5 * time.Second, interval: 5 * time.Second,
		targets: []float64{2000}, clients: 32, dirs: 16, files: 50,
	}
	run := runSpotifyLambda(opts, sp, "λFS", -1, 256, 0)
	if run.rec.Completed.Load() == 0 {
		t.Fatal("no operations completed")
	}

	prom, err := os.ReadFile(filepath.Join(dir, "mini-fs.prom"))
	if err != nil {
		t.Fatalf("prometheus dump: %v", err)
	}
	for _, prefix := range []string{
		"lambdafs_ndb_", "lambdafs_faas_", "lambdafs_rpc_",
		"lambdafs_core_", "lambdafs_coordinator_", "lambdafs_cost_",
	} {
		if !strings.Contains(string(prom), prefix) {
			t.Errorf("prometheus dump has no %s* instruments", prefix)
		}
	}
	if !strings.Contains(string(prom), "# TYPE ") {
		t.Error("prometheus dump missing TYPE headers")
	}

	raw, err := os.ReadFile(filepath.Join(dir, "mini-fs-snapshots.json"))
	if err != nil {
		t.Fatalf("snapshot series: %v", err)
	}
	var snaps []struct {
		TUS    int64              `json:"t_us"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(raw, &snaps); err != nil {
		t.Fatalf("snapshot series is not JSON: %v", err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots for a %v run", len(snaps), sp.duration)
	}
	// Non-decreasing, not strictly increasing: the end-of-run ScrapeNow
	// shares the final tick's virtual timestamp.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].TUS < snaps[i-1].TUS {
			t.Fatalf("snapshots not chronologically ordered: t_us %d after %d",
				snaps[i].TUS, snaps[i-1].TUS)
		}
	}
	if snaps[len(snaps)-1].TUS <= snaps[0].TUS {
		t.Fatal("snapshot series spans no virtual time")
	}
	first, last := snaps[0].Values, snaps[len(snaps)-1].Values
	for _, key := range []string{
		"lambdafs_faas_invocations_total",
		"lambdafs_ndb_tx_commits_total",
	} {
		if last[key] <= first[key] || last[key] == 0 {
			t.Errorf("series %s did not advance: first=%v last=%v", key, first[key], last[key])
		}
	}
	if last["lambdafs_faas_active_instances"] <= 0 {
		t.Error("no active NameNodes in the final snapshot")
	}
	if last["lambdafs_cost_payperuse_usd"] <= 0 {
		t.Error("pay-per-use cost gauge never accrued")
	}
}
