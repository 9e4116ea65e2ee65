package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRestartBaselineFile(t *testing.T, b *RestartBaseline) string {
	t.Helper()
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatalf("marshal baseline: %v", err)
	}
	path := filepath.Join(t.TempDir(), "restart.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	return path
}

func cloneRestartBaseline(t *testing.T, b *RestartBaseline) *RestartBaseline {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out RestartBaseline
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &out
}

// TestRestartMeasure pins the experiment's physics at tiny scale: every
// scenario recovers digest-exact; the uncheckpointed scenarios replay
// exactly their log; the checkpointed scenario's replay is bounded by
// the cadence and its recovery starts from a non-zero base LSN.
func TestRestartMeasure(t *testing.T) {
	opts := Options{Scale: Tiny, Seed: 1, Out: io.Discard}
	b := RestartMeasure(opts)
	for _, sc := range restartScenarios(opts.Scale) {
		r := b.Rows[sc.name]
		if r == nil {
			t.Fatalf("scenario %s missing from measurement", sc.name)
		}
		if !r.DigestMatch {
			t.Errorf("%s: recovered state diverged", sc.name)
		}
		if sc.ckptEvery == 0 {
			if r.Replayed != sc.records || r.WALRecords != sc.records {
				t.Errorf("%s: replayed/wal %d/%d, want %d/%d",
					sc.name, r.Replayed, r.WALRecords, sc.records, sc.records)
			}
		} else {
			if r.BaseLSN == 0 {
				t.Errorf("%s: checkpointed scenario recovered from base LSN 0", sc.name)
			}
			if r.Replayed >= sc.ckptEvery {
				t.Errorf("%s: replayed %d records, cadence %d should bound the tail",
					sc.name, r.Replayed, sc.ckptEvery)
			}
		}
	}
	small, large := b.Rows["wal_64"], b.Rows["wal_256"]
	if large.RecoveryUs <= small.RecoveryUs {
		t.Errorf("recovery time did not grow with log length: %dus (256) <= %dus (64)",
			large.RecoveryUs, small.RecoveryUs)
	}
}

// TestRestartBaselineGate drives CheckRestartBaseline three ways: an
// honest baseline passes, a deflated recovery-time fixture fails
// mentioning recovery, and a stale schema is rejected.
func TestRestartBaselineGate(t *testing.T) {
	opts := Options{Scale: Tiny, Seed: 1, Out: io.Discard}
	cur := RestartMeasure(opts)

	t.Run("honest baseline passes", func(t *testing.T) {
		path := writeRestartBaselineFile(t, cur)
		if err := CheckRestartBaseline(path, Options{Out: io.Discard}); err != nil {
			t.Fatalf("honest baseline failed the gate: %v", err)
		}
	})

	t.Run("deflated recovery fixture fails", func(t *testing.T) {
		regressed := cloneRestartBaseline(t, cur)
		// A committed baseline claiming a much faster recovery makes the
		// current honest measurement look like a regression.
		regressed.Rows["wal_256"].RecoveryUs /= 10
		path := writeRestartBaselineFile(t, regressed)
		err := CheckRestartBaseline(path, Options{Out: io.Discard})
		if err == nil {
			t.Fatal("deflated recovery baseline passed the gate")
		}
		if !strings.Contains(err.Error(), "recovery") {
			t.Fatalf("gate failure does not mention recovery: %v", err)
		}
	})

	t.Run("replay drift fails", func(t *testing.T) {
		drifted := cloneRestartBaseline(t, cur)
		drifted.Rows["wal_256"].Replayed--
		path := writeRestartBaselineFile(t, drifted)
		err := CheckRestartBaseline(path, Options{Out: io.Discard})
		if err == nil || !strings.Contains(err.Error(), "replayed") {
			t.Fatalf("replayed-record drift not caught: %v", err)
		}
	})

	t.Run("stale schema rejected", func(t *testing.T) {
		stale := cloneRestartBaseline(t, cur)
		stale.Schema = "lambdafs-restart-baseline/v0"
		path := writeRestartBaselineFile(t, stale)
		err := CheckRestartBaseline(path, Options{Out: io.Discard})
		if err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("stale schema not rejected: %v", err)
		}
	})
}
