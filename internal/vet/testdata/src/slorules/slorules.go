// Package slorules is a lambdafs-vet golden fixture: SLO rule
// constructors may only reference metric names that some analyzed
// package registers on a telemetry.Registry, and the names must be
// compile-time constants.
package slorules

import (
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
)

const ratioMetric = "lambdafs_slorules_hit_ratio"

// register puts three instruments into the namespace the rules below
// are checked against.
func register(reg *telemetry.Registry) {
	reg.Counter("lambdafs_slorules_ops_total")
	reg.Gauge("lambdafs_slorules_queue_depth")
	reg.Histogram("lambdafs_slorules_latency_seconds")
	reg.Histogram(ratioMetric)
}

// clean rules: every metric reference resolves to a registration above,
// including via a named constant and the derived _count series, in both
// of Absence's metric positions.
func clean() []slo.Rule {
	return []slo.Rule{
		slo.Threshold("depth", "lambdafs_slorules_queue_depth", slo.SignalEWMA, 8, 3),
		slo.QuantileThreshold("p99", "lambdafs_slorules_latency_seconds", 0.99, 5e-3, 1),
		slo.QuantileThreshold("ratio", ratioMetric, 0.5, 0.9, 1),
		slo.Absence("stall", "lambdafs_slorules_ops_total", "lambdafs_slorules_latency_seconds_count", 4),
	}
}

func dirty(dynamic string) []slo.Rule {
	return []slo.Rule{
		slo.Threshold("typo", "lambdafs_slorules_queue_dept", slo.SignalDelta, 8, 3),                     // want slorules
		slo.QuantileThreshold("ghost", "lambdafs_slorules_missing_seconds", 0.99, 1, 1),                  // want slorules
		slo.Absence("badactivity", "lambdafs_slorules_ops_total", "lambdafs_slorules_requests_total", 4), // want slorules
		slo.Absence("dyn", dynamic, "lambdafs_slorules_ops_total", 4),                                    // want slorules
	}
}
