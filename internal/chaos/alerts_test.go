package chaos

import (
	"fmt"
	"strings"
	"testing"

	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
)

// TestAlertCoverage runs every episode family's scripted scenario under
// slo.Rules and asserts its coverage contract: each must-fire alert fired
// and no must-not-fire alert did, across seeds — among them 15, 31 and 42,
// whose read-only commits once fired the WAL stall alert. Every rule of
// the pack is a must-fire rule of some family, and every must-fire name
// is a rule of the pack.
func TestAlertCoverage(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range AlertContracts() {
		for _, name := range c.MustFire {
			covered[name] = true
		}
	}
	for _, r := range slo.Rules() {
		if !covered[r.Name] {
			t.Errorf("rule %q is no family's must-fire rule", r.Name)
		}
		delete(covered, r.Name)
	}
	for name := range covered {
		t.Errorf("must-fire rule %q is not in slo.Rules", name)
	}
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
// for seeds 1 and 2, the fourteen `lambdafs-bench slo` prints (first 16 hex
// digits). The episodes run on clock.Sim, which schedules its goroutines
// itself, so they are the same on every run, host and GOMAXPROCS.
var goldenAlertDigests = map[AlertFamily][2]string{
	FamilyInstanceKill:    {"15e2a5ad0e7ce4c7", "942afd24e028114d"},
	FamilyShardFault:      {"3569d2744157eb93", "3569d2744157eb93"},
	FamilySlowCoordinator: {"91f23b2849a1a8ba", "9ce7492f7baa568c"},
	FamilyCrashRestart:    {"c62a0b603a9d0cc6", "c62a0b603a9d0cc6"},
	FamilyWALDrop:         {"ae67d6704c192669", "ae67d6704c192669"},
	FamilyLeaderDepose:    {"cdfb591aa751787d", "856498b3ef91fc8b"},
	FamilyTenantStorm:     {"13f2417b6b01188e", "db3dc3b46932a023"},
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
					"`go run ./cmd/lambdafs-bench slo` prints all fourteen for goldenAlertDigests", c.Family, seed, a.Digest, want)
			}
		}
	}
}

// TestAlertCoverageCatchesMutedAlert is the sabotage proof: muting any
// of a family's must-fire rules (the alert evaluates but can never
// transition) must surface as a contract violation naming that rule. If
// this test fails, the battery would silently pass with dead alerts.
func TestAlertCoverageCatchesMutedAlert(t *testing.T) {
	for _, c := range AlertContracts() {
		for _, rule := range c.MustFire {
			res := RunAlertEpisode(AlertEpisodeConfig{Family: c.Family, Seed: 5, MuteRule: rule})
			found := false
			for _, v := range res.Violations {
				if strings.Contains(v, fmt.Sprintf("%q", rule)) && strings.Contains(v, "never fired") {
					found = true
				}
			}
			if !found {
				t.Errorf("family %s: muted must-fire rule %q was not caught: %v", c.Family, rule, res.Violations)
			}
		}
	}
}

// TestAlertEpisodeRecorderWiring checks the failure-dump path: snapshots
// and firing/resolved trace events land in a flight recorder.
func TestAlertEpisodeRecorderWiring(t *testing.T) {
	rec := telemetry.NewFlightRecorder()
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
