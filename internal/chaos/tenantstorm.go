package chaos

// The tenant-storm family exercises multi-tenant admission control end
// to end on a REAL cluster: every alert family's live cluster (alerts.go)
// gates its engines with the tenants below through core's Admission hook
// and tags its steady traffic in their rotation, within every budget. The
// storm — one underprovisioned tenant flooding far past its rate — must
// surface as the tenant-throttle alert while every other rule stays quiet:
// throttled requests never reach the store.

import (
	"fmt"

	"lambdafs/internal/clock"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/tenant"
)

// stormTenants is the live cluster's fixed tenant population: two
// well-provisioned interactive tenants and one whose bucket is sized for
// background scraping — the storm target.
func stormTenants(clk *clock.Sim, reg *telemetry.Registry) *tenant.Registry {
	tr := tenant.NewRegistry(clk, reg)
	tr.Register(tenant.Class{Name: "media", OpsPerSec: 500, Burst: 500})
	tr.Register(tenant.Class{Name: "analytics", OpsPerSec: 500, Burst: 500})
	tr.Register(tenant.Class{Name: "crawler", OpsPerSec: 5, Burst: 5})
	return tr
}

// stormMix is the steady-state tenant rotation of the live cluster's op
// stream: at alertOpsPerSec = 20 the crawler's quarter share is exactly
// its 5 ops/s budget.
var stormMix = []string{"media", "media", "analytics", "crawler"}

// floodTenant follows the steady ops of each fault second and the second
// after it, which drain the crawler's bucket, with a burst of 30× the
// per-second op count from the crawler: admission admits a handful and
// rejects the rest, over the surge bound of 500 a tick for both ticks,
// before any CPU or store work happens.
func floodTenant(a *alertEpisode, sec int) {
	a.steady()
	if faultSecond(sec) || faultSecond(sec-1) {
		for i := 0; i < alertOpsPerSec*30; i++ {
			a.request("crawler")
		}
		a.inj.NoteFired(FaultTenantStorm, fmt.Sprintf("sec=%d tenant=crawler", sec))
	}
}
