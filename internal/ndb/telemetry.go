package ndb

import (
	"strconv"

	"lambdafs/internal/clock"
	"lambdafs/internal/telemetry"
)

// storeTelemetry mirrors the Stats counters into the telemetry registry.
// The mirroring happens in bumpStat from before/after deltas, so the
// registry counters agree with Stats() by construction. All fields are
// nil-safe instruments: with no registry wired the mirror is a no-op.
type storeTelemetry struct {
	reads           *telemetry.Counter
	writes          *telemetry.Counter
	commits         *telemetry.Counter
	aborts          *telemetry.Counter
	lockTimeouts    *telemetry.Counter
	batchedResolves *telemetry.Counter
	resolveHops     *telemetry.Counter
	lockWaitSec     *telemetry.Counter
	walAppends      *telemetry.Counter
	walBytes        *telemetry.Counter
	checkpoints     *telemetry.Counter
}

func newStoreTelemetry(reg *telemetry.Registry) *storeTelemetry {
	return &storeTelemetry{
		reads:           reg.Counter("lambdafs_ndb_reads_total"),
		writes:          reg.Counter("lambdafs_ndb_writes_total"),
		commits:         reg.Counter("lambdafs_ndb_tx_commits_total"),
		aborts:          reg.Counter("lambdafs_ndb_tx_aborts_total"),
		lockTimeouts:    reg.Counter("lambdafs_ndb_lock_timeouts_total"),
		batchedResolves: reg.Counter("lambdafs_ndb_batched_resolves_total"),
		resolveHops:     reg.Counter("lambdafs_ndb_resolve_hops_total"),
		lockWaitSec:     reg.Counter("lambdafs_ndb_lock_wait_seconds_total"),
		walAppends:      reg.Counter("lambdafs_ndb_wal_appends_total"),
		walBytes:        reg.Counter("lambdafs_ndb_wal_bytes_total"),
		checkpoints:     reg.Counter("lambdafs_ndb_checkpoints_total"),
	}
}

func (t *storeTelemetry) mirror(before, after Stats) {
	if t == nil {
		return
	}
	t.reads.Add(float64(after.Reads - before.Reads))
	t.writes.Add(float64(after.Writes - before.Writes))
	t.commits.Add(float64(after.Commits - before.Commits))
	t.aborts.Add(float64(after.Aborts - before.Aborts))
	t.lockTimeouts.Add(float64(after.LockTimeouts - before.LockTimeouts))
	t.batchedResolves.Add(float64(after.BatchedResolves - before.BatchedResolves))
	t.resolveHops.Add(float64(after.ResolveHops - before.ResolveHops))
	t.lockWaitSec.Add(float64(after.LockWaitNS-before.LockWaitNS) / 1e9)
	t.walAppends.Add(float64(after.WALAppends - before.WALAppends))
	t.walBytes.Add(float64(after.WALBytes - before.WALBytes))
	t.checkpoints.Add(float64(after.Checkpoints - before.Checkpoints))
}

// registerShardGauges exposes each data-node shard's instantaneous queue
// depth: the accesses that have reserved a slot and not yet started
// service. Reading it takes only the queue's own mutex, no store locks, so
// the scraper can sample it at any time.
func registerShardGauges(reg *telemetry.Registry, clk clock.Clock, shards []*clock.Queue) {
	for i, sh := range shards {
		reg.GaugeFunc("lambdafs_ndb_queue_depth",
			func() float64 { return float64(sh.Waiting(clk.Now())) },
			telemetry.L("shard", strconv.Itoa(i)))
	}
}
