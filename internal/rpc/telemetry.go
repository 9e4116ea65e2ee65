package rpc

import (
	"lambdafs/internal/telemetry"
)

// rpcTelemetry holds the RPC fabric's registry instruments, shared by
// every client of a VM (and, through registry get-or-create, by every VM
// wired to the same registry). Bumps are co-located with the per-client
// ClientStats counters. Instruments are nil when no registry is
// configured; all bumps are then no-ops.
type rpcTelemetry struct {
	inflight   *telemetry.Gauge
	latency    *telemetry.Histogram
	tcp        *telemetry.Counter
	http       *telemetry.Counter
	retries    *telemetry.Counter
	hedges     *telemetry.Counter
	timeouts   *telemetry.Counter
	failovers  *telemetry.Counter
	antiThrash *telemetry.Counter
	wireBytes  *telemetry.Counter
	// raceCancelled counts the racers of replaced requests that reached a
	// NameNode after their race was decided and ran nothing there.
	raceCancelled *telemetry.Counter
}

func newRPCTelemetry(reg *telemetry.Registry) rpcTelemetry {
	return rpcTelemetry{
		inflight:   reg.Gauge("lambdafs_rpc_inflight"),
		latency:    reg.Histogram("lambdafs_rpc_latency_seconds"),
		tcp:        reg.Counter("lambdafs_rpc_tcp_total"),
		http:       reg.Counter("lambdafs_rpc_http_total"),
		retries:    reg.Counter("lambdafs_rpc_retries_total"),
		hedges:     reg.Counter("lambdafs_rpc_hedges_total"),
		timeouts:   reg.Counter("lambdafs_rpc_timeouts_total"),
		failovers:  reg.Counter("lambdafs_rpc_failovers_total"),
		antiThrash: reg.Counter("lambdafs_rpc_antithrash_total"),
		wireBytes:  reg.Counter("lambdafs_rpc_wire_bytes_total"),

		raceCancelled: reg.Counter("lambdafs_rpc_race_cancelled_total"),
	}
}
