package ndb

import (
	"math"
	"strconv"

	"lambdafs/internal/clock"
	"lambdafs/internal/telemetry"
)

// storeTelemetry holds the store's registry counters. The registry is the
// counter: call sites bump these instruments and Stats() reads them back,
// so a count exists exactly once.
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

func newStoreTelemetry(reg *telemetry.Registry) storeTelemetry {
	return storeTelemetry{
		reads:   reg.Counter("lambdafs_ndb_reads_total"),
		writes:  reg.Counter("lambdafs_ndb_writes_total"),
		commits: reg.Counter("lambdafs_ndb_tx_commits_total"),
		// Write transactions aborted: an Abort, or a failed Commit, of a
		// transaction that asked for an exclusive lock. A read-only
		// transaction ending in Abort, as every cache fill does, has
		// nothing to undo and is not counted.
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

// countBatchedResolve counts one multi-get path resolution: one read, one
// dependent round.
func (t *storeTelemetry) countBatchedResolve() {
	t.reads.Inc()
	t.batchedResolves.Inc()
	t.resolveHops.Inc()
}

// Stats reads the store counters out of the registry. Each field is one
// atomic load; the fields are not read at one common instant (on clock.Sim
// only one goroutine runs at a time, so there a snapshot between
// operations is exact anyway). Stores sharing a registry — a Recover after
// a crash handed the crashed store's Config — share the counts, which
// therefore carry on across the restart.
func (db *DB) Stats() Stats {
	t := &db.tel
	return Stats{
		Reads:           uint64(t.reads.Value()),
		Writes:          uint64(t.writes.Value()),
		Commits:         uint64(t.commits.Value()),
		Aborts:          uint64(t.aborts.Value()),
		LockTimeouts:    uint64(t.lockTimeouts.Value()),
		BatchedResolves: uint64(t.batchedResolves.Value()),
		ResolveHops:     uint64(t.resolveHops.Value()),
		LockWaitNS:      uint64(math.Round(t.lockWaitSec.Value() * 1e9)),
		WALAppends:      uint64(t.walAppends.Value()),
		WALBytes:        uint64(t.walBytes.Value()),
		Checkpoints:     uint64(t.checkpoints.Value()),
	}
}

// registerShardGauges exposes each data-node shard's instantaneous queue
// depth: the accesses that have reserved a slot and not yet started
// service. Reading it takes only the queue's own mutex, no store locks, so
// the scraper can sample it at any time.
func registerShardGauges(reg *telemetry.Registry, clk *clock.Sim, shards []*clock.Queue) {
	for i, sh := range shards {
		reg.GaugeFunc("lambdafs_ndb_queue_depth",
			func() float64 { return float64(sh.Waiting(clk.Now())) },
			telemetry.L("shard", strconv.Itoa(i)))
	}
}
