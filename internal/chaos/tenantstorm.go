package chaos

// The tenant-storm episode family exercises multi-tenant admission
// control end to end on a REAL cluster: a tenant.Registry is wired into
// the engines through core's Admission hook, tenant-tagged requests flow
// through token buckets before touching the store, and the storm — one
// underprovisioned tenant flooding far past its rate — must surface as
// the tenant-throttle alert while every other alert in the uniform
// ChaosRulePack stays quiet (latency, membership, and durability are
// untouched: throttled requests never reach the store). The cluster, op
// mix and clock discipline are runClusterAlertScenario's (alerts.go);
// this file holds only what the family adds to it.

import (
	"lambdafs/internal/clock"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/tenant"
)

// stormTenants is the episode's fixed tenant population: two
// well-provisioned interactive tenants and one whose bucket is sized
// for background scraping — the storm target.
func stormTenants(clk *clock.Sim, reg *telemetry.Registry) *tenant.Registry {
	tr := tenant.NewRegistry(clk, reg)
	tr.Register(tenant.Class{Name: "media", OpsPerSec: 500, Burst: 500})
	tr.Register(tenant.Class{Name: "analytics", OpsPerSec: 500, Burst: 500})
	tr.Register(tenant.Class{Name: "crawler", OpsPerSec: 5, Burst: 5})
	return tr
}

// stormMix is the steady-state tenant rotation of the episode's op
// stream: at the default 20 ops/s the crawler's quarter share is exactly
// its 5 ops/s budget.
var stormMix = []string{"media", "media", "analytics", "crawler"}
