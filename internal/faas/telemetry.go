package faas

import (
	"lambdafs/internal/telemetry"
)

// faasTelemetry holds the platform's registry counters. The registry is
// the counter: call sites bump these instruments and Stats() reads them
// back, so a count exists exactly once.
type faasTelemetry struct {
	invocations  *telemetry.Counter
	coldStarts   *telemetry.Counter
	coldStartSec *telemetry.Counter
	reclamations *telemetry.Counter
	evictions    *telemetry.Counter
	kills        *telemetry.Counter
	rejections   *telemetry.Counter
}

func newFaasTelemetry(reg *telemetry.Registry) faasTelemetry {
	return faasTelemetry{
		invocations:  reg.Counter("lambdafs_faas_invocations_total"),
		coldStarts:   reg.Counter("lambdafs_faas_cold_starts_total"),
		coldStartSec: reg.Counter("lambdafs_faas_cold_start_seconds_total"),
		reclamations: reg.Counter("lambdafs_faas_reclamations_total"),
		evictions:    reg.Counter("lambdafs_faas_evictions_total"),
		kills:        reg.Counter("lambdafs_faas_kills_total"),
		rejections:   reg.Counter("lambdafs_faas_rejections_total"),
	}
}

// registerPoolGauges exposes the platform's instantaneous pool state as
// callback gauges. The callbacks take p.mu (and d.mu) briefly; they are
// invoked from the scraper goroutine, never from a path that already
// holds platform locks, so the established p.mu → d.mu order is
// preserved.
func (p *Platform) registerPoolGauges(reg *telemetry.Registry) {
	reg.GaugeFunc("lambdafs_faas_active_instances",
		func() float64 { return float64(p.ActiveInstances()) })
	reg.GaugeFunc("lambdafs_faas_warm_instances",
		func() float64 { return float64(p.WarmInstances()) })
	reg.GaugeFunc("lambdafs_faas_pool_vcpu_used",
		func() float64 { return p.VCPUInUse() })
	total := p.cfg.TotalVCPU
	reg.GaugeFunc("lambdafs_faas_pool_utilization", func() float64 {
		if total <= 0 {
			return 0
		}
		return p.VCPUInUse() / total
	})
}
