package bench

import (
	"io"
	"testing"
)

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
