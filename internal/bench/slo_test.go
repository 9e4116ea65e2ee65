package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSLOExperiment runs the slo experiment at tiny scale with SLODir
// set (the library form of `lambdafs-bench -slo DIR`) and checks both
// phases: the coverage battery must be violation-free with every
// family's must-fire alert in its fired set, and the live run must
// leave parseable artifacts with the default rule pack registered.
func TestSLOExperiment(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	opts.Scale = Tiny
	opts.SLODir = dir
	tables := RunSLO(opts)
	if len(tables) != 2 {
		t.Fatalf("RunSLO returned %d tables, want 2", len(tables))
	}
	coverage, live := tables[0], tables[1]

	for _, row := range coverage.Rows {
		if row[5] != "0" {
			t.Errorf("coverage row %v reports violations", row)
		}
		if row[3] == "[]" {
			t.Errorf("family %s fired nothing", row[0])
		}
	}
	for _, note := range coverage.Notes {
		if strings.Contains(note, "VIOLATION") {
			t.Errorf("coverage note: %s", note)
		}
	}

	// The live table carries one row per default rule, each in a legal
	// state.
	if len(live.Rows) != 6 {
		t.Fatalf("live table has %d rules, want the 6 of the default pack", len(live.Rows))
	}
	for _, row := range live.Rows {
		switch row[2] {
		case "inactive", "pending", "firing":
		default:
			t.Errorf("rule %s in unknown state %q", row[0], row[2])
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "slo-coverage.json"))
	if err != nil {
		t.Fatalf("coverage artifact: %v", err)
	}
	var results []struct {
		Family string
		Fired  []string
		Digest string
	}
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("coverage artifact is not JSON: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("coverage artifact has %d episodes, want 5 (one per family at tiny scale)", len(results))
	}
	for _, r := range results {
		if len(r.Fired) == 0 || len(r.Digest) != 64 {
			t.Errorf("episode %+v incomplete", r)
		}
	}

	if _, err := os.Stat(filepath.Join(dir, "slo-alerts.jsonl")); err != nil {
		t.Errorf("alert log artifact: %v", err)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "slo-live.prom"))
	if err != nil {
		t.Fatalf("live prometheus dump: %v", err)
	}
	if !strings.Contains(string(prom), "lambdafs_slo_rules 6") {
		t.Error("live registry does not report the 6 default rules")
	}
	if !strings.Contains(string(prom), `lambdafs_slo_firing{rule="inv_latency_p99"}`) {
		t.Error("live registry missing per-rule firing gauges")
	}
}
