package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/workload"
)

// This file implements the hotpath experiment: a focused micro-benchmark
// of the engine's hot paths — deep-path resolution, the listing miss,
// write-storm invalidation fan-out, and partitioned subtree mv — over the
// bench deployment's virtual-time store and coordinator models. It doubles as
// the perf-regression baseline: the committed BENCH_hotpath.json is
// regenerated by `lambdafs-bench -baseline hotpath` and checked by
// `lambdafs-bench -check BENCH_hotpath.json` (check.sh runs the latter).
// All latencies are virtual (discrete-event) time, so runs are
// deterministic and every column but allocs/op is gated exactly
// (baseline.go).

// HotpathSchema identifies the baseline file format. v3 stores one
// measurement per scenario; older baselines fail the schema check and
// must be regenerated.
const HotpathSchema = "lambdafs-hotpath-baseline/v3"

// HotpathScenario is the measurement of one hot path.
type HotpathScenario struct {
	// Ops is the number of measured operations.
	Ops int `json:"ops"`
	// ThroughputOpsSec is ops divided by the virtual wall time.
	ThroughputOpsSec float64 `json:"throughput_ops_per_s"`
	// P50Us / P99Us are per-op virtual latency percentiles (µs).
	P50Us int64 `json:"p50_us"`
	P99Us int64 `json:"p99_us"`
	// NDBReadsPerOp is the store read-charge count per operation.
	NDBReadsPerOp float64 `json:"ndb_reads_per_op"`
	// ResolveHopsPerOp is dependent path-resolution rounds per operation
	// (ndb.Stats.ResolveHops delta / ops): the "NDB round trips per
	// resolve" metric of EXPERIMENTS.md.
	ResolveHopsPerOp float64 `json:"resolve_hops_per_op"`
	// VirtualWallUs is the total virtual time of the measured phase (µs).
	VirtualWallUs int64 `json:"virtual_wall_us"`
	// AllocsPerOp is the host heap-allocation count per operation
	// (runtime.MemStats.Mallocs delta over the measured phase / ops). The
	// only non-virtual metric in the baseline: it regresses when a hot
	// path starts allocating, which virtual time can't see. The gate's
	// margin absorbs the runtime's small run-to-run jitter.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// LockWaitUsPerOp is virtual µs spent waiting on contended row locks
	// per operation (ndb.Stats.LockWaitNS delta / ops).
	LockWaitUsPerOp float64 `json:"lock_wait_us_per_op"`
}

// HotpathBaseline is the committed BENCH_hotpath.json document.
type HotpathBaseline struct {
	baselineHeader
	Scenarios map[string]*HotpathScenario `json:"scenarios"`
}

// hotpathCluster is a direct-engine λFS stack (no FaaS/RPC layers): one
// writer plus peer NameNodes sharing an NDB store and ZK coordinator with
// the bench deployment's latencies. Keeping the gateway out isolates
// exactly the paths this experiment measures.
type hotpathCluster struct {
	clk    *clock.Sim
	db     *ndb.DB
	zk     *coordinator.ZK
	writer *core.Engine
}

// newHotpathCluster must run on the simulation clock (inside clock.Run).
func newHotpathCluster(clk *clock.Sim, peers int) *hotpathCluster {
	db := ndb.New(clk, ndbConfig())
	ccfg := coordinator.DefaultConfig()
	ccfg.HopLatency = 300 * time.Microsecond
	ccfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(db, id) }
	zk := coordinator.NewZK(clk, ccfg)
	ring := partition.NewRing(1, 0)
	ecfg := core.DefaultEngineConfig()
	writer := core.NewEngine("nn-w", 0, clk, db, ring, zk, nil, ecfg)
	zk.Register(0, "nn-w", writer.HandleInvalidation)
	for i := 0; i < peers; i++ {
		id := fmt.Sprintf("nn-p%02d", i)
		e := core.NewEngine(id, 0, clk, db, ring, zk, nil, ecfg)
		zk.Register(0, id, e.HandleInvalidation)
	}
	return &hotpathCluster{clk: clk, db: db, zk: zk, writer: writer}
}

// measureOps runs fn for each op index on the sim clock, recording per-op
// virtual latencies and store-counter deltas, and folds them into a
// scenario measurement.
func (c *hotpathCluster) measureOps(ops int, fn func(i int)) *HotpathScenario {
	lats := make([]time.Duration, 0, ops)
	before := c.db.Stats()
	var wall time.Duration
	var mallocs uint64
	// The allocation count is the process's, so the window shuts the host
	// out: it runs on one P, where neither the caller parking in clock.Run
	// nor the Sim's watchdog runs beside the ops, and it starts after
	// clock.Run's spawn, which starts a new goroutine whenever the previous
	// Run's has not parked yet.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clock.Run(c.clk, func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
		start := c.clk.Now()
		for i := 0; i < ops; i++ {
			opStart := c.clk.Now()
			fn(i)
			lats = append(lats, c.clk.Since(opStart))
		}
		wall = c.clk.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
	})
	after := c.db.Stats()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(float64(len(lats)-1) * p)
		return lats[idx].Microseconds()
	}
	sc := &HotpathScenario{
		Ops:           ops,
		P50Us:         pct(0.50),
		P99Us:         pct(0.99),
		VirtualWallUs: wall.Microseconds(),
	}
	if wall > 0 {
		sc.ThroughputOpsSec = float64(ops) / wall.Seconds()
	}
	if ops > 0 {
		sc.NDBReadsPerOp = float64(after.Reads-before.Reads) / float64(ops)
		sc.ResolveHopsPerOp = float64(after.ResolveHops-before.ResolveHops) / float64(ops)
		sc.AllocsPerOp = float64(mallocs) / float64(ops)
		sc.LockWaitUsPerOp = float64(after.LockWaitNS-before.LockWaitNS) / 1e3 / float64(ops)
	}
	return sc
}

// hotpathScenario preloads dirs and files into a fresh hotpath cluster
// with peers peer NameNodes and measures ops requests, the i-th being
// req(i). The benchmark namespace is private to each scenario, so every
// request must succeed.
func hotpathScenario(peers int, dirs, files []string, ops int, req func(i int) namespace.Request) *HotpathScenario {
	clk := clock.NewSim()
	defer clk.Close()
	var c *hotpathCluster
	clock.Run(clk, func() {
		c = newHotpathCluster(clk, peers)
		workload.PreloadNDB(c.db, dirs, files)
	})
	return c.measureOps(ops, func(i int) {
		r := req(i)
		if resp := c.writer.Execute(r); !resp.OK() {
			panic(fmt.Sprintf("hotpath: %v %s failed: %s", r.Op, r.Path, resp.Err))
		}
	})
}

// hotpathDeepStat measures cache-miss stats of files under a deep
// directory chain: each resolution is a single per-shard multi-get,
// whatever the depth.
func hotpathDeepStat(depth, files int) *HotpathScenario {
	dir := ""
	var dirs, paths []string
	for d := 0; d < depth; d++ {
		dir = fmt.Sprintf("%s/h%d", dir, d)
		dirs = append(dirs, dir)
	}
	for f := 0; f < files; f++ {
		paths = append(paths, fmt.Sprintf("%s/f%04d", dir, f))
	}
	return hotpathScenario(4, dirs, paths, files, func(i int) namespace.Request {
		return namespace.Request{Op: namespace.OpStat, Path: paths[i]}
	})
}

// hotpathLsMiss measures cold listings: every op lists another directory
// of perDir files, and chain and children come back in one fused multi-get
// — one store read and one resolve hop per ls, like a stat.
func hotpathLsMiss(dirs, perDir int) *HotpathScenario {
	dirPaths := []string{"/ls"}
	var files []string
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/ls/d%04d", d)
		dirPaths = append(dirPaths, dir)
		for f := 0; f < perDir; f++ {
			files = append(files, fmt.Sprintf("%s/f%02d", dir, f))
		}
	}
	return hotpathScenario(4, dirPaths, files, dirs, func(i int) namespace.Request {
		return namespace.Request{Op: namespace.OpLs, Path: dirPaths[1+i]}
	})
}

// hotpathWriteStorm measures mkdirs ops that each create a chain of fresh
// directories with many peer NameNodes registered: every created path
// must be invalidated on every peer, all in one coalesced INV/ACK round.
func hotpathWriteStorm(peers, ops int) *HotpathScenario {
	return hotpathScenario(peers, []string{"/storm"}, nil, ops, func(i int) namespace.Request {
		return namespace.Request{Op: namespace.OpMkdirs, Path: fmt.Sprintf("/storm/d%04d/a/b/c/d", i)}
	})
}

// hotpathSubtreeMv measures one mv of a size-INode directory: the
// quiesce phase reads every INode in the subtree under exclusive locks,
// one per-shard multi-get per partition.
func hotpathSubtreeMv(size int) *HotpathScenario {
	dirs, files := workload.DeepNamespace("/mvroot", size)
	return hotpathScenario(4, dirs, files, 1, func(int) namespace.Request {
		return namespace.Request{Op: namespace.OpMv, Path: "/mvroot", Dest: "/moved"}
	})
}

// HotpathMeasure runs all four scenarios and returns the baseline
// document.
func HotpathMeasure(opts Options) *HotpathBaseline {
	s := opts.Scale
	depth, files := scaled(s, 10, 10, 8), scaled(s, 384, 96, 32)
	stormPeers, stormOps := scaled(s, 16, 16, 8), scaled(s, 192, 48, 16)
	mvSize := scaled(s, 10_000, 10_000, 2_000)
	return &HotpathBaseline{
		baselineHeader: baselineHeader{HotpathSchema, s.String(), opts.Seed},
		Scenarios: map[string]*HotpathScenario{
			"deep_stat":   hotpathDeepStat(depth, files),
			"ls_miss":     hotpathLsMiss(files, 16),
			"write_storm": hotpathWriteStorm(stormPeers, stormOps),
			"subtree_mv":  hotpathSubtreeMv(mvSize),
		},
	}
}

// hotpathScenarioOrder fixes the presentation order of the scenario map.
var hotpathScenarioOrder = []string{"deep_stat", "ls_miss", "write_storm", "subtree_mv"}

// RunHotpath renders the hotpath experiment as a table.
func RunHotpath(opts Options) []*Table {
	b := HotpathMeasure(opts)
	t := &Table{
		ID:    "hotpath",
		Title: "Hot paths: batched resolution, one-round listing miss, one-round invalidation, partitioned subtree mv (virtual time)",
		Columns: []string{"scenario", "ops", "ops/s", "p50", "p99",
			"reads/op", "hops/op", "allocs/op", "lockwait/op", "wall"},
	}
	for _, name := range hotpathScenarioOrder {
		sc := b.Scenarios[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", sc.Ops),
			fmtOps(sc.ThroughputOpsSec),
			fmtDur(time.Duration(sc.P50Us) * time.Microsecond),
			fmtDur(time.Duration(sc.P99Us) * time.Microsecond),
			fmt.Sprintf("%.1f", sc.NDBReadsPerOp),
			fmt.Sprintf("%.1f", sc.ResolveHopsPerOp),
			fmt.Sprintf("%.0f", sc.AllocsPerOp),
			fmt.Sprintf("%.1fus", sc.LockWaitUsPerOp),
			fmtDur(time.Duration(sc.VirtualWallUs) * time.Microsecond),
		})
	}
	t.Notes = append(t.Notes,
		"hops/op counts dependent resolution rounds (ndb.Stats.ResolveHops); batched resolution holds it at ~1 per resolve regardless of depth",
		"allocs/op is host heap allocations (runtime.MemStats.Mallocs delta); lockwait/op is virtual time blocked on contended row locks (ndb.Stats.LockWaitNS delta)",
		"every column but allocs/op is virtual time or a count, the same on every run")
	t.Fprint(opts.out())
	return []*Table{t}
}

// allocsMargin is allocs_per_op's rule. The one host-side column may
// rise 25% plus an absolute slack over its baseline, so the runtime's
// run-to-run jitter on a small baseline does not fail the gate.
const hotpathAllocsMargin, hotpathAllocsSlack = 1.25, 8.0

func allocsMargin(got, want any) string {
	g, gerr := strconv.ParseFloat(fmt.Sprint(got), 64)
	w, werr := strconv.ParseFloat(fmt.Sprint(want), 64)
	if gerr != nil || werr != nil {
		return exactLeaf(got, want)
	}
	if limit := w*hotpathAllocsMargin + hotpathAllocsSlack; g > limit {
		return fmt.Sprintf("allocs/op %.0f > %.0f (baseline %.0f ×%.2f + %.0f slack)",
			g, limit, w, hotpathAllocsMargin, hotpathAllocsSlack)
	}
	return ""
}
