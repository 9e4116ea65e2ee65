package chaos

import (
	"testing"
)

// TestTenantStormContract runs the tenant-storm family over a seed
// sweep: the throttle alert must fire, everything else must stay quiet,
// and the episode must be digest-stable under replay.
func TestTenantStormContract(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := RunAlertEpisode(AlertEpisodeConfig{Family: FamilyTenantStorm, Seed: seed})
		if res.Failed() {
			t.Fatalf("seed %d violated the contract: %v", seed, res.Violations)
		}
		fired := false
		for _, name := range res.Fired {
			if name == "tenant_throttle_surge" {
				fired = true
			}
		}
		if !fired {
			t.Fatalf("seed %d: tenant_throttle_surge never fired (fired: %v)", seed, res.Fired)
		}
		replay := RunAlertEpisode(AlertEpisodeConfig{Family: FamilyTenantStorm, Seed: seed})
		if replay.Digest != res.Digest {
			t.Fatalf("seed %d replay diverged: %s vs %s", seed, res.Digest, replay.Digest)
		}
	}
}

// TestTenantStormStoreIsolation checks the selectivity claim behind the
// must-not-fire list: a storm's rejected requests never reach the store,
// so op latency stays healthy even while thousands of requests are
// being thrown away.
func TestTenantStormStoreIsolation(t *testing.T) {
	res := RunAlertEpisode(AlertEpisodeConfig{Family: FamilyTenantStorm, Seed: 11})
	for _, name := range res.Fired {
		if name == "op_latency_p99" {
			t.Fatalf("op latency alert fired during a tenant storm: throttled requests leaked into the service path")
		}
	}
}
