package slo

// DefaultRules is the shipped rule pack: the observability contract the
// future feedback-driven autoscaler consumes (ROADMAP "scale on the
// registry's queue-depth and cold-start gauges"). Bounds are stated in
// virtual-time seconds and scrape ticks (default 1s tick).
//
// Metric names here are statically checked by lambdafs-vet's slorules
// check against the set of names registered somewhere in the module.
func DefaultRules() []Rule {
	return []Rule{
		// Cache-coherence INV latency SLO (paper §4.2): p99 of the
		// coordinator's INV/ACK round must stay under 5ms over the sketch
		// window, held for 2 ticks to ride out a single slow scrape.
		QuantileThreshold("inv_latency_p99",
			"lambdafs_coordinator_inv_latency_seconds", 0.99, OpGreater, 5e-3, 2),

		// Cold-start burn rate: warm-start SLO of 90% — fire when more
		// than 4× the 10% error budget of invocations cold-start over both
		// a 3-tick fast window and a 12-tick slow window.
		BurnRate("cold_start_burn",
			"lambdafs_faas_cold_starts_total", "lambdafs_faas_invocations_total",
			0.90, 4, 3, 12),

		// NDB queue-depth saturation: EWMA of the worst shard's queue
		// depth above 8 outstanding for 3 consecutive ticks.
		Threshold("ndb_queue_saturation",
			"lambdafs_ndb_queue_depth", SignalEWMA, OpGreater, 8, 3),

		// WAL-fsync stall: rows keep being written (a read-only commit
		// appends nothing) but no WAL appends land for 4 consecutive ticks
		// — durability is silently behind the commit stream.
		Absence("wal_fsync_stall",
			"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 4),

		// Recovery-time ceiling: any observed crash recovery taking more
		// than 2 virtual seconds end-to-end breaches the restart SLO.
		QuantileThreshold("recovery_time_ceiling",
			"lambdafs_ndb_recovery_seconds", 0.99, OpGreater, 2.0, 1),

		// Tenant throttle surge: more than 500 admission rejections per
		// tick sustained for 2 ticks means some tenant's provisioned rate
		// is far below its demand (or a storm is underway) — the signal
		// the capacity planner acts on.
		Threshold("tenant_throttle_surge",
			"lambdafs_tenant_throttled_total", SignalDelta, OpGreater, 500, 2),
	}
}
