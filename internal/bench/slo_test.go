package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdafs/internal/chaos"
	"lambdafs/internal/slo"
)

// TestSLOExperiment runs the slo experiment at tiny scale with ArtifactDir
// set (the library form of `lambdafs-bench -out DIR`) and checks both
// phases: the coverage battery must be violation-free with every
// family's must-fire alert in its fired set, and the live run must fire
// nothing and leave parseable artifacts with the rule pack registered.
func TestSLOExperiment(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	opts.Scale = Tiny
	opts.ArtifactDir = dir
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

	// The live table carries one row per rule of the pack, and the
	// healthy deployment fires none of them: no rule ends firing and none
	// records a transition.
	if len(live.Rows) != len(slo.Rules()) {
		t.Fatalf("live table has %d rules, want the pack's %d", len(live.Rows), len(slo.Rules()))
	}
	for _, row := range live.Rows {
		switch row[2] {
		case "inactive", "pending":
		default:
			t.Errorf("rule %s in state %q on a healthy deployment", row[0], row[2])
		}
		if row[5] != "0" {
			t.Errorf("rule %s recorded %s firing/resolved transitions on a healthy deployment", row[0], row[5])
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
	if len(results) != len(chaos.AlertContracts()) {
		t.Fatalf("coverage artifact has %d episodes, want %d (one per family at tiny scale)", len(results), len(chaos.AlertContracts()))
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
	if want := fmt.Sprintf("lambdafs_slo_rules %d", len(slo.Rules())); !strings.Contains(string(prom), want) {
		t.Errorf("live registry does not report the pack's rules: no %q", want)
	}
	if !strings.Contains(string(prom), `lambdafs_slo_firing{rule="inv_latency_p99"}`) {
		t.Error("live registry missing per-rule firing gauges")
	}
}
