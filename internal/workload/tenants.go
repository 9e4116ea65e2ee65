package workload

import (
	"lambdafs/internal/namespace"
	"lambdafs/internal/tenant"
)

// TenantClass couples a tenant's admission contract with the operation
// mix and demand its clients generate. The Spotify industrial workload
// is one class among several synthetic ones: the scale experiment
// partitions its client population across these classes (SplitClients),
// drives it with RunPopulation and derives each tenant's token-bucket
// rate from its expected demand (AdmissionClass).
type TenantClass struct {
	// Name is the tenant identifier carried in namespace.Request.Tenant.
	Name string
	// Mix is the class's operation distribution.
	Mix Mix
	// ClientShare is the fraction of the total client population the
	// class owns (the shares of DefaultTenantClasses sum to 1).
	ClientShare float64
	// OpsPerClient is each client's mean issue rate in ops/sec.
	OpsPerClient float64
	// AdmissionHeadroom scales the tenant's provisioned token-bucket
	// rate relative to expected demand (clients × OpsPerClient): > 1
	// means the tenant rarely throttles, < 1 deliberately
	// underprovisions it so admission control has observable work.
	AdmissionHeadroom float64
}

// DefaultTenantClasses returns the scale experiment's tenant population:
// the Spotify industrial mix plus three synthetic classes with distinct
// read/write shapes and admission contracts.
func DefaultTenantClasses() []TenantClass {
	return []TenantClass{
		// The paper's industrial workload: read-dominated, the largest
		// population share, provisioned with comfortable headroom.
		{Name: "spotify", Mix: SpotifyMix(),
			ClientShare: 0.50, OpsPerClient: 1.0, AdmissionHeadroom: 1.5},
		// Interactive analytics: bursts of stat/ls from human-facing
		// dashboards.
		{Name: "interactive", Mix: Mix{
			{namespace.OpStat, 55}, {namespace.OpLs, 30}, {namespace.OpRead, 15},
		}, ClientShare: 0.30, OpsPerClient: 0.5, AdmissionHeadroom: 1.5},
		// Batch ingest: write-heavy pipeline churn.
		{Name: "batch-ingest", Mix: Mix{
			{namespace.OpCreate, 45}, {namespace.OpMkdirs, 5}, {namespace.OpDelete, 20},
			{namespace.OpMv, 5}, {namespace.OpStat, 25},
		}, ClientShare: 0.15, OpsPerClient: 2.0, AdmissionHeadroom: 1.5},
		// Crawler: a scraping workload deliberately provisioned below its
		// demand — the class that exercises throttling in steady state.
		{Name: "crawler", Mix: Mix{
			{namespace.OpLs, 50}, {namespace.OpRead, 40}, {namespace.OpStat, 10},
		}, ClientShare: 0.05, OpsPerClient: 4.0, AdmissionHeadroom: 0.7},
	}
}

// SplitClients divides a client population across classes by ClientShare
// (at least one client each); what rounding leaves over goes to the first
// class.
func SplitClients(classes []TenantClass, total int) []int {
	counts := make([]int, len(classes))
	assigned := 0
	for i, cls := range classes {
		counts[i] = max(1, int(float64(total)*cls.ClientShare))
		assigned += counts[i]
	}
	counts[0] += total - assigned
	return counts
}

// AdmissionClass derives the tenant.Class for a population of clients:
// the token-bucket rate is expected demand scaled by the headroom, with
// one second of burst and an in-flight cap proportional to the rate.
func (tc TenantClass) AdmissionClass(clients int) tenant.Class {
	rate := float64(clients) * tc.OpsPerClient * tc.AdmissionHeadroom
	return tenant.Class{
		Name:        tc.Name,
		OpsPerSec:   rate,
		Burst:       rate,
		MaxInflight: int(rate), // at most ~1s of service backlog in flight
	}
}
