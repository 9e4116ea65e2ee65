package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"

	"lambdafs/internal/trace"
)

// metricDef names one reported metric. BENCHMARK.json lists exactly these
// (the smoke test compares the two).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the system sees, at both altitudes: virt_*
// is what the modelled λFS costs, host_* and setup_s what the simulator
// costs us. A change meant only to speed the simulator up must leave
// every virt_* inside its bound; a change to the model must leave host_*
// inside theirs.
var endToEnd = []metricDef{
	{"virt_ops_per_s", "ops/s", "higher", 0.07},
	{"virt_lat_body_us", "us", "lower", 0.07},
	{"virt_lat_tail_us", "us", "lower", 0.09},
	{"virt_usd_per_mop", "usd/Mop", "lower", 0.04},
	{"host_allocs_per_op", "allocs/op", "lower", 0.05},
	{"host_live_heap_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: layer = package name. Rows marked host_* and
// lsm.virt_us_per_scan_1k come from timing direct calls into the layer
// (layers.go) and are the same on every workload; the others are measured
// on the workload named by --workload.
var perLayer = []metricDef{
	// Demoted from the end-to-end table (README, "Demoted metrics").
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "virt_p50_us", Unit: "us", Better: "lower"},
	{Name: "virt_p99_us", Unit: "us", Better: "lower"},

	{Name: "rpc.virt_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "rpc.tcp_share", Unit: "ratio", Better: "higher"},
	{Name: "rpc.retries_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "rpc.timeouts_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "rpc.antithrash_events", Unit: "count", Better: "lower"},
	{Name: "rpc.wire_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "rpc.virt_read_p50_us", Unit: "us", Better: "lower"},
	{Name: "rpc.virt_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "rpc.virt_p999_us", Unit: "us", Better: "lower"},
	{Name: "rpc.host_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rpc.host_allocs_per_call", Unit: "allocs", Better: "lower"},

	{Name: "faas.virt_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "faas.invocations_per_op", Unit: "1/op", Better: "lower"},
	{Name: "faas.peak_active_instances", Unit: "count", Better: "lower"},
	{Name: "faas.host_ns_per_invoke_warm", Unit: "ns", Better: "lower"},

	{Name: "core.virt_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.invalidation_rounds_per_write", Unit: "1/write", Better: "lower"},
	{Name: "core.parallel_invalidations_per_write", Unit: "1/write", Better: "higher"},
	{Name: "core.host_ns_per_stat_hit", Unit: "ns", Better: "lower"},
	{Name: "core.host_allocs_per_stat_hit", Unit: "allocs", Better: "lower"},
	{Name: "core.host_ns_per_create", Unit: "ns", Better: "lower"},
	{Name: "core.host_allocs_per_create", Unit: "allocs", Better: "lower"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.host_ns_per_lookup_hit", Unit: "ns", Better: "lower"},
	{Name: "cache.host_allocs_per_lookup_hit", Unit: "allocs", Better: "lower"},
	{Name: "cache.host_ns_per_putchain", Unit: "ns", Better: "lower"},
	{Name: "cache.host_ns_per_invalidate", Unit: "ns", Better: "lower"},

	{Name: "coordinator.virt_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "coordinator.invalidations_per_write", Unit: "1/write", Better: "lower"},
	{Name: "coordinator.inv_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.inv_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.host_ns_per_inv_round_t8", Unit: "ns", Better: "lower"},

	{Name: "ndb.virt_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ndb.reads_per_op", Unit: "1/op", Better: "lower"},
	{Name: "ndb.writes_per_op", Unit: "1/op", Better: "lower"},
	{Name: "ndb.resolve_hops_per_op", Unit: "1/op", Better: "lower"},
	{Name: "ndb.batched_resolves_per_op", Unit: "1/op", Better: "lower"},
	{Name: "ndb.commits_per_write", Unit: "1/write", Better: "lower"},
	{Name: "ndb.aborts_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "ndb.lock_waits_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "ndb.lock_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ndb.lock_timeouts", Unit: "count", Better: "lower"},
	{Name: "ndb.virt_queue_us_per_op", Unit: "us", Better: "lower"},
	{Name: "ndb.wal_appends_per_write", Unit: "1/write", Better: "lower"},
	{Name: "ndb.wal_bytes_per_write", Unit: "B/write", Better: "lower"},
	{Name: "ndb.checkpoints", Unit: "count", Better: "lower"},
	{Name: "ndb.virt_recovery_us", Unit: "us", Better: "lower"},
	{Name: "ndb.replayed_records", Unit: "count", Better: "lower"},
	{Name: "ndb.host_ns_per_resolve_d6", Unit: "ns", Better: "lower"},
	{Name: "ndb.host_allocs_per_resolve_d6", Unit: "allocs", Better: "lower"},
	{Name: "ndb.host_ns_per_write_tx", Unit: "ns", Better: "lower"},
	{Name: "ndb.host_ns_per_wal_append", Unit: "ns", Better: "lower"},

	{Name: "lsm.host_ns_per_put", Unit: "ns", Better: "lower"},
	{Name: "lsm.host_ns_per_get", Unit: "ns", Better: "lower"},
	{Name: "lsm.virt_us_per_scan_1k", Unit: "us", Better: "lower"},

	{Name: "namespace.host_ns_per_inode_clone", Unit: "ns", Better: "lower"},
	{Name: "namespace.host_allocs_per_inode_clone", Unit: "allocs", Better: "lower"},

	{Name: "clock.advances_per_op", Unit: "1/op", Better: "lower"},
	{Name: "clock.host_ns_per_wake_g16", Unit: "ns", Better: "lower"},
	{Name: "clock.host_ns_per_wake_g256", Unit: "ns", Better: "lower"},
	{Name: "clock.host_ns_per_run_shuttle", Unit: "ns", Better: "lower"},
	{Name: "clock.p2_host_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "trace.host_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.allocs_per_op_delta", Unit: "allocs/op", Better: "lower"},
	{Name: "trace.virt_unattributed_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},

	{Name: "host.ops_per_cpu_s", Unit: "ops/s", Better: "higher"},
	{Name: "host.ops_per_wall_s", Unit: "ops/s", Better: "higher"},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "host.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "host.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "host.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
}

// quantile is the exact nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMean is the mean of sorted between the lo and hi quantile ranks,
// in µs. Exact quantiles are no use as gated metrics here: the model's
// service times are constants, so client latencies sit on a lattice (on
// read_hot 58% of operations take exactly 1048 µs and most others exactly
// 1498 µs) and p50/p99 either read the same on every run or jump by 40%
// when a lattice point crosses the rank. A mean over a rank window moves
// continuously with the share of operations on each lattice point.
func windowMean(sorted []int64, lo, hi float64) float64 {
	a, b := int(lo*float64(len(sorted))), int(hi*float64(len(sorted)))
	if b <= a {
		return 0
	}
	var sum float64
	for _, v := range sorted[a:b] {
		sum += float64(v)
	}
	return sum / float64(b-a) / 1e3
}

// The two gated latency statistics. body is the mean of all operations
// but the slowest 0.2%: what a request costs, blind to the few that hit a
// cold start (their number is racy on clock.Sim, and one of them weighs as
// much as 900 others). tail is the mean of the slowest tenth, again short
// of the top 0.2%: queueing, lock waits and the HTTP fallbacks.
func latBody(p *phase) float64 { return windowMean(p.lat, 0, 0.998) }
func latTail(p *phase) float64 { return windowMean(p.lat, 0.90, 0.998) }

// overEpisodes is the median over clusters of f of the measured phase.
func overEpisodes(eps []*episode, f func(p *phase) float64) float64 {
	vs := make([]float64, len(eps))
	for i, e := range eps {
		vs[i] = f(&e.m)
	}
	return median(vs)
}

func (p *phase) perOp(v float64) float64 { return ratio(v, float64(p.ops)) }

// endToEndValues folds the clusters of an untraced run into the
// end-to-end metrics: each is computed per cluster and reported as the
// median over clusters.
func endToEndValues(eps []*episode) map[string]float64 {
	setups := make([]float64, len(eps))
	for i, e := range eps {
		setups[i] = e.setup.Seconds()
	}
	return map[string]float64{
		"virt_ops_per_s":     overEpisodes(eps, func(p *phase) float64 { return ratio(float64(p.done), p.virt.Seconds()) }),
		"virt_lat_body_us":   overEpisodes(eps, latBody),
		"virt_lat_tail_us":   overEpisodes(eps, latTail),
		"virt_usd_per_mop":   overEpisodes(eps, func(p *phase) float64 { return p.perOp(p.usd * 1e6) }),
		"host_allocs_per_op": overEpisodes(eps, func(p *phase) float64 { return p.perOp(float64(p.mallocs)) }),
		"host_live_heap_mb":  overEpisodes(eps, func(p *phase) float64 { return float64(p.liveHeap) / (1 << 20) }),
		"setup_s":            median(setups),
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64) // a malformed line reads as 0
			return kb / 1024
		}
	}
	return 0
}

// gcCPU is the runtime's cumulative CPU accounting, in seconds.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

func (a gcCPU) sub(b gcCPU) gcCPU { return gcCPU{a.gc - b.gc, a.total - b.total} }

// layerOf maps a span kind to the package that emits it.
func layerOf(k trace.Kind) string {
	s := string(k)
	switch {
	case strings.HasPrefix(s, "rpc."):
		return "rpc"
	case strings.HasPrefix(s, "faas."):
		return "faas"
	case strings.HasPrefix(s, "engine."), strings.HasPrefix(s, "subtree."):
		return "core"
	case strings.HasPrefix(s, "coherence."):
		return "coordinator"
	case strings.HasPrefix(s, "ndb."):
		return "ndb"
	}
	return "other"
}

// selfTimes groups trace.Aggregate's per-kind self times by layer and
// returns virtual µs per traced request, plus the part of the requests'
// end-to-end time no span accounts for (negative when parallel legs —
// per-shard commits, per-target INV/ACKs — overlap) and the wait for a
// store shard worker.
func selfTimes(traces []*trace.Trace) (perLayer map[string]float64, unattributed, storeQueue float64) {
	b := trace.Aggregate(traces)
	perLayer = map[string]float64{}
	var n, e2e, attributed float64
	for _, name := range b.OpNames() {
		op := b.Op(name)
		n += float64(op.Count)
		e2e += float64(op.E2ETotal)
		attributed += float64(op.Attributed)
		for _, ks := range op.Kinds() {
			perLayer[layerOf(ks.Kind)] += float64(ks.Total)
			if ks.Kind == trace.KindStoreQueue {
				storeQueue += float64(ks.Total)
			}
		}
	}
	for l := range perLayer {
		perLayer[l] = ratio(perLayer[l], n) / 1e3
	}
	return perLayer, ratio(e2e-attributed, n) / 1e3, ratio(storeQueue, n) / 1e3
}

// layerValues builds the per-layer ledger from an untraced episode run
// with the probe on, a traced episode of the same workload and seed, and
// the direct-call rows.
func layerValues(plain, traced *episode, bench map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range bench {
		out[k] = v
	}
	m := &plain.m
	ops, writes := float64(m.ops), float64(len(m.writeLat))
	d := func(name string) float64 { return plain.ctrAfter[name] - plain.ctrBefore[name] }
	perOp := func(name string) float64 { return ratio(d(name), ops) }
	perKop := func(name string) float64 { return ratio(d(name), ops) * 1e3 }
	perWrite := func(name string) float64 { return ratio(d(name), writes) }

	out["fail_ratio"] = ratio(float64(plain.failed), float64(plain.attempted))
	out["virt_p50_us"] = quantile(m.lat, 0.50) / 1e3
	out["virt_p99_us"] = quantile(m.lat, 0.99) / 1e3

	tcp, http := d("lambdafs_rpc_tcp_total"), d("lambdafs_rpc_http_total")
	out["rpc.tcp_share"] = ratio(tcp, tcp+http)
	out["rpc.retries_per_kop"] = perKop("lambdafs_rpc_retries_total")
	out["rpc.timeouts_per_kop"] = perKop("lambdafs_rpc_timeouts_total")
	out["rpc.antithrash_events"] = d("lambdafs_rpc_antithrash_total")
	out["rpc.wire_bytes_per_op"] = perOp("lambdafs_rpc_wire_bytes_total")
	out["rpc.virt_read_p50_us"] = quantile(m.readLat, 0.50) / 1e3
	out["rpc.virt_write_p50_us"] = quantile(m.writeLat, 0.50) / 1e3
	out["rpc.virt_p999_us"] = quantile(m.lat, 0.999) / 1e3

	out["faas.invocations_per_op"] = perOp("lambdafs_faas_invocations_total")
	out["faas.peak_active_instances"] = plain.peakInstances

	out["core.invalidation_rounds_per_write"] = perWrite("lambdafs_core_invalidation_rounds_total")
	out["core.parallel_invalidations_per_write"] = perWrite("lambdafs_core_parallel_invalidations_total")

	hits, misses := d("lambdafs_core_cache_hits_total"), d("lambdafs_core_cache_misses_total")
	out["cache.hit_ratio"] = ratio(hits, hits+misses)

	out["coordinator.invalidations_per_write"] = perWrite("lambdafs_coordinator_invalidations_total")
	// The registry's histogram is cumulative and bucketed: these two rows
	// include the warm-up's rounds and move in bucket steps.
	out["coordinator.inv_latency_p50_us"] = plain.ctrAfter[`lambdafs_coordinator_inv_latency_seconds{quantile="0.5"}`] * 1e6
	out["coordinator.inv_latency_p99_us"] = plain.ctrAfter[`lambdafs_coordinator_inv_latency_seconds{quantile="0.99"}`] * 1e6

	out["ndb.reads_per_op"] = perOp("lambdafs_ndb_reads_total")
	out["ndb.writes_per_op"] = perOp("lambdafs_ndb_writes_total")
	out["ndb.resolve_hops_per_op"] = perOp("lambdafs_ndb_resolve_hops_total")
	out["ndb.batched_resolves_per_op"] = perOp("lambdafs_ndb_batched_resolves_total")
	out["ndb.commits_per_write"] = perWrite("lambdafs_ndb_tx_commits_total")
	out["ndb.aborts_per_kop"] = perKop("lambdafs_ndb_tx_aborts_total")
	out["ndb.lock_waits_per_kop"] = perKop("lambdafs_ndb_lock_waits_total")
	out["ndb.lock_wait_us_per_op"] = perOp("lambdafs_ndb_lock_wait_seconds_total") * 1e6
	out["ndb.lock_timeouts"] = d("lambdafs_ndb_lock_timeouts_total")
	out["ndb.wal_appends_per_write"] = perWrite("lambdafs_ndb_wal_appends_total")
	out["ndb.wal_bytes_per_write"] = perWrite("lambdafs_ndb_wal_bytes_total")
	out["ndb.checkpoints"] = d("lambdafs_ndb_checkpoints_total")
	out["ndb.virt_recovery_us"], out["ndb.replayed_records"] = 0, 0
	if rs := plain.recovery; rs != nil {
		out["ndb.virt_recovery_us"] = float64(rs.RecoveryTime.Microseconds())
		out["ndb.replayed_records"] = float64(rs.ReplayedRecords)
	}

	out["clock.advances_per_op"] = ratio(float64(plain.advances), ops)

	self, unattributed, storeQueue := selfTimes(traced.tracer.Traces())
	out["ndb.virt_queue_us_per_op"] = storeQueue
	for _, l := range []string{"rpc", "faas", "core", "coordinator", "ndb"} {
		out[l+".virt_self_us_per_op"] = self[l]
	}
	out["trace.virt_unattributed_us_per_op"] = unattributed
	_, droppedSpans, _ := traced.tracer.Dropped()
	out["trace.dropped_spans"] = float64(droppedSpans)
	out["trace.host_overhead_ratio"] = ratio(traced.m.perOp(traced.m.host.Seconds()), m.perOp(m.host.Seconds())) - 1
	out["trace.allocs_per_op_delta"] = traced.m.perOp(float64(traced.m.mallocs)) - m.perOp(float64(m.mallocs))

	out["host.ops_per_cpu_s"] = ratio(ops, m.cpu.Seconds())
	out["host.ops_per_wall_s"] = ratio(ops, m.host.Seconds())
	out["host.peak_rss_mb"] = peakRSSMiB()
	out["host.gc_cpu_share"] = ratio(plain.gc.gc, plain.gc.total)
	out["host.alloc_bytes_per_op"] = m.perOp(float64(m.bytes))
	out["host.goroutines_peak"] = float64(plain.peakGoroutines)
	out["loadgen.lag_p99_us"] = quantile(m.lag, 0.99) / 1e3
	return out
}
