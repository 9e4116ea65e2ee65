package chaos

import (
	"strings"
	"testing"

	"lambdafs/internal/telemetry"
)

// TestAlertCoverage runs every episode family's scripted scenario under
// the full ChaosRulePack and asserts its coverage contract: each
// must-fire alert fired and no must-not-fire alert did, across seeds —
// among them 15, 31 and 42, whose read-only commits once fired the WAL
// stall alert.
func TestAlertCoverage(t *testing.T) {
	for _, c := range AlertContracts() {
		c := c
		t.Run(string(c.Family), func(t *testing.T) {
			for _, seed := range []int64{1, 7, 15, 31, 42} {
				res := RunAlertEpisode(AlertEpisodeConfig{Family: c.Family, Seed: seed})
				if res.Failed() {
					t.Errorf("seed %d: contract violated:\n  %s",
						seed, strings.Join(res.Violations, "\n  "))
				}
				if len(res.Transitions) == 0 {
					t.Errorf("seed %d: no alert transitions recorded", seed)
				}
			}
		})
	}
}

// goldenAlertDigests are the transition digests of every family's episode
// for seeds 1 and 2, the ten `lambdafs-bench slo` prints (first 16 hex
// digits). The episodes run on clock.Sim, which schedules its goroutines
// itself, so they are the same on every run, host and GOMAXPROCS.
var goldenAlertDigests = map[AlertFamily][2]string{
	FamilyInstanceKill: {"1cff280ff83192aa", "6dd0bc82e8df6f2c"},
	FamilyShardFault:   {"b76e62a01cc31589", "f6f57f985c82055b"},
	FamilyCrashRestart: {"e29e92e093280c33", "e29e92e093280c33"},
	FamilyLeaderDepose: {"52f8ec4ff09df1ab", "b2214d9cf20bfec6"},
	FamilyTenantStorm:  {"de04242e35486d5c", "39408959a1cfc405"},
}

// TestAlertEpisodeDigestStable pins seeded replay: the same config must
// produce byte-identical transition digests — the committed ones — and
// differing seeds are allowed to differ (they schedule different ops
// around the faults).
func TestAlertEpisodeDigestStable(t *testing.T) {
	for _, c := range AlertContracts() {
		for i, want := range goldenAlertDigests[c.Family] {
			seed := int64(i + 1)
			a := RunAlertEpisode(AlertEpisodeConfig{Family: c.Family, Seed: seed})
			if seed == 1 {
				if b := RunAlertEpisode(AlertEpisodeConfig{Family: c.Family, Seed: seed}); a.Digest != b.Digest {
					t.Errorf("family %s: seed %d replay diverged: %s vs %s", c.Family, seed, a.Digest, b.Digest)
				}
			}
			if len(a.Digest) < 16 || a.Digest[:16] != want {
				t.Errorf("family %s seed %d: digest %.16s, committed %s — if the change is meant to move alert timing, "+
					"`go run ./cmd/lambdafs-bench slo` prints all ten for goldenAlertDigests", c.Family, seed, a.Digest, want)
			}
		}
	}
}

// TestAlertCoverageCatchesMutedAlert is the sabotage proof: muting a
// family's must-fire rule (the alert evaluates but can never
// transition) must surface as a contract violation. If this test fails,
// the battery would silently pass with dead alerts.
func TestAlertCoverageCatchesMutedAlert(t *testing.T) {
	for _, c := range AlertContracts() {
		cfg := AlertEpisodeConfig{Family: c.Family, Seed: 5, MuteRule: c.MustFire[0]}
		res := RunAlertEpisode(cfg)
		if !res.Failed() {
			t.Errorf("family %s: muted must-fire rule %q was not caught", c.Family, cfg.MuteRule)
			continue
		}
		found := false
		for _, v := range res.Violations {
			if strings.Contains(v, cfg.MuteRule) && strings.Contains(v, "never fired") {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s: violations do not name the muted rule: %v", c.Family, res.Violations)
		}
	}
}

// TestAlertEpisodeRecorderWiring checks the failure-dump path: snapshots
// and firing/resolved trace events land in a flight recorder.
func TestAlertEpisodeRecorderWiring(t *testing.T) {
	rec := telemetry.NewFlightRecorder(256, 256)
	res := RunAlertEpisode(AlertEpisodeConfig{Family: FamilyShardFault, Seed: 3, Flight: rec})
	if res.Failed() {
		t.Fatalf("episode failed: %v", res.Violations)
	}
	events, snaps := rec.Len()
	if snaps == 0 {
		t.Fatal("no snapshots reached the flight recorder")
	}
	if events == 0 {
		t.Fatal("no slo trace events reached the flight recorder")
	}
}
