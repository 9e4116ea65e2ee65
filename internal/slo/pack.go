package slo

// Rules is the system's one alert rule pack: the chaos alert-coverage
// battery (internal/chaos), the slo experiment's live phase and
// lambdafs-shell all evaluate it. Each bound is set so that a healthy
// live deployment stays silent, and each rule is a must-fire rule of at
// least one chaos family, whose fault is scripted to breach the bound.
// Bounds are stated in virtual-time seconds and scrape ticks (default 1s
// tick).
//
// A rule on a metric no subsystem registers never fires, so
// TestAlertCoverage (internal/chaos) fails on a misspelt metric name.
func Rules() []Rule {
	return []Rule{
		// Any coordination-session expiry within a tick: a NameNode
		// instance died or was cut off.
		Threshold("lease_churn",
			"lambdafs_coordinator_lease_expiries_total", SignalDelta, 0.5, 1),

		// p99 of metadata-op latency at the NameNode over 50ms: well
		// clear of a healthy deployment's burst tail (p99 ~18ms at
		// paper scale), well under a stalled shard's service time.
		QuantileThreshold("op_latency_p99",
			"lambdafs_core_op_latency_seconds", 0.99, 50e-3, 1),

		// Cache-coherence INV latency SLO (paper §4.2): p99 of the
		// coordinator's INV/ACK round must stay under 5ms over the sketch
		// window, held for 2 ticks to ride out a single slow scrape.
		QuantileThreshold("inv_latency_p99",
			"lambdafs_coordinator_inv_latency_seconds", 0.99, 5e-3, 2),

		// NDB queue-depth saturation: EWMA of the worst shard's queue
		// depth above 8 outstanding for 3 consecutive ticks.
		Threshold("ndb_queue_saturation",
			"lambdafs_ndb_queue_depth", SignalEWMA, 8, 3),

		// WAL-fsync stall: rows keep being written (a read-only commit
		// appends nothing) but no WAL record reaches media for 4
		// consecutive ticks — durability is silently behind the commit
		// stream.
		Absence("wal_fsync_stall",
			"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 4),

		// Recovery-time ceiling: any observed crash recovery taking more
		// than 2 virtual seconds end-to-end breaches the restart SLO.
		QuantileThreshold("recovery_time_ceiling",
			"lambdafs_ndb_recovery_seconds", 0.99, 2.0, 1),

		// Tenant throttle surge: more than 500 admission rejections per
		// tick sustained for 2 ticks means some tenant's provisioned rate
		// is far below its demand (or a storm is underway) — the signal
		// the capacity planner acts on.
		Threshold("tenant_throttle_surge",
			"lambdafs_tenant_throttled_total", SignalDelta, 500, 2),
	}
}
