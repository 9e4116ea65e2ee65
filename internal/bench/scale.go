package bench

// The scale experiment asks what the metadata service does as the client
// population grows: each point builds the same λFS deployment every other
// experiment uses (lambdafs.NewCluster on clock.Sim: rpc → faas →
// core.Engine → ndb, one warm NameNode per deployment), registers
// workload.DefaultTenantClasses with a tenant.Registry wired into
// EngineConfig.Admission, and drives the population as closed-loop
// goroutine clients (workload.RunPopulation) through tenant-tagged
// rpc.Clients for a fixed number of virtual seconds. What the rows show —
// cold starts, the instance count pinned at the vCPU cap, the latency
// cliff past it, the crawler clipped by its token bucket — is the FaaS
// control loop and the admission gate themselves, not a model of them.
//
// clock.Sim resumes one goroutine at a time in (deadline, arm order), so
// a point is a pure function of (clients, seconds, seed) on any
// GOMAXPROCS: BENCH_scale.json is an exact-match golden.

import (
	"fmt"
	"math"
	"time"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/tenant"
	"lambdafs/internal/workload"
)

// ScaleSchema identifies the BENCH_scale.json format.
const ScaleSchema = "lambdafs-scale-baseline/v2"

// scalePoint is one measured (population, duration) point.
type scalePoint struct {
	clients int
	seconds int
}

// The sweeps are sized by host cost (a goroutine, two PRNGs and an rpc
// client per simulated client): quick stays under 1 GiB and ~20 s of
// wall, and only -full crosses the cliff at 30k clients.
func scalePoints(s Scale) []scalePoint {
	return scaled(s,
		[]scalePoint{{1_000, 8}, {10_000, 8}, {30_000, 8}},
		[]scalePoint{{1_000, 8}, {10_000, 8}},
		[]scalePoint{{200, 4}, {1_000, 4}})
}

// ScaleTenantRow is one tenant's outcome at a point: the admission
// gate's own counters (lambdafs_tenant_*) and the tenant's client-side
// p99.
type ScaleTenantRow struct {
	Tenant    string `json:"tenant"`
	Clients   int    `json:"clients"`
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
	P99Us     int64  `json:"p99_us"`
}

// ScaleRow is one point of the committed scale baseline. All fields are
// exact replay invariants of (mode, seed).
type ScaleRow struct {
	Clients int `json:"clients"`
	// Ops and Throttled are what the clients saw: replies served and
	// replies rejected by the admission gate.
	Ops           uint64           `json:"ops"`
	Throttled     uint64           `json:"throttled"`
	P50Us         int64            `json:"p50_us"`
	P99Us         int64            `json:"p99_us"`
	ColdStarts    uint64           `json:"cold_starts"`
	PeakInstances int              `json:"peak_instances"`
	Tenants       []ScaleTenantRow `json:"tenants"`
}

// ScaleBaseline is the committed BENCH_scale.json document.
type ScaleBaseline struct {
	Schema string               `json:"schema"`
	Mode   string               `json:"mode"`
	Seed   int64                `json:"seed"`
	Rows   map[string]*ScaleRow `json:"rows"`
}

// scaleResult is one measured point: the gated row plus what only the
// rendered tables and the tests read.
type scaleResult struct {
	scalePoint
	row     *ScaleRow
	reg     *telemetry.Registry // the point's whole telemetry plane
	elapsed time.Duration       // virtual: first issue window open → last reply
	wall    time.Duration
}

// runScalePoint measures one (clients, seconds) point on the real stack.
func runScalePoint(pt scalePoint, seed int64) *scaleResult {
	wallStart := time.Now() //vet:allow virtualtime reports host simulation runtime, not simulated latency
	clk := clock.NewSim()
	defer clk.Close()
	classes := workload.DefaultTenantClasses()
	counts := workload.SplitClients(classes, pt.clients)

	reg := telemetry.NewRegistry()
	treg := tenant.NewRegistry(clk, reg)
	for i, cls := range classes {
		treg.Register(cls.AdmissionClass(counts[i]))
	}
	cfg := lambdaConfig(clk, seed)
	cfg.MinInstancesPerDeployment = 1
	cfg.Store.Metrics = reg
	cfg.Engine.Admission = treg
	dirs, files := workload.GenerateNamespace(microTreeShape(Quick))
	tree := workload.NewTree(dirs, files)

	var c *lambdafs.Cluster
	var recs []*workload.Recorder
	var elapsed time.Duration
	clock.Run(clk, func() {
		c = mustLambda(cfg)
		workload.PreloadNDB(c.Store(), dirs, files)
		client := lambdaClients(c, 8)
		start := clk.Now()
		recs = workload.RunPopulation(clk, tree, classes, pt.clients,
			time.Duration(pt.seconds)*time.Second, seed,
			func(tenantName string, i int) workload.FS {
				cl := client(i)
				cl.Tenant = tenantName
				return cl
			})
		elapsed = clk.Since(start)
	})
	defer c.Close()

	fst := c.Platform().Stats()
	row := &ScaleRow{
		Clients:       pt.clients,
		ColdStarts:    fst.ColdStarts,
		PeakInstances: int(math.Round(fst.PeakVCPUUsed / cfg.NameNodeVCPU)),
	}
	var overall metrics.HistSnapshot
	for i, rec := range recs {
		lat := rec.Overall.Snapshot()
		overall = overall.Merge(lat)
		row.Ops += rec.Completed.Load()
		row.Throttled += rec.Throttled.Load()
		t := treg.Lookup(classes[i].Name)
		row.Tenants = append(row.Tenants, ScaleTenantRow{
			Tenant:    classes[i].Name,
			Clients:   counts[i],
			Admitted:  uint64(t.Admitted()),
			Throttled: uint64(t.Throttled()),
			P99Us:     lat.Quantile(0.99).Microseconds(),
		})
	}
	row.P50Us = overall.Quantile(0.50).Microseconds()
	row.P99Us = overall.Quantile(0.99).Microseconds()
	return &scaleResult{
		scalePoint: pt, row: row, reg: reg, elapsed: elapsed,
		wall: time.Since(wallStart), //vet:allow virtualtime host-runtime measurement is genuinely wall-clock
	}
}

func scaleKey(clients int) string { return fmt.Sprintf("c%d", clients) }

// ScaleMeasure runs the mode's client-count sweep and returns the
// baseline document plus the results for rendering.
func ScaleMeasure(opts Options) (*ScaleBaseline, []*scaleResult) {
	b := &ScaleBaseline{
		Schema: ScaleSchema,
		Mode:   opts.Scale.String(),
		Seed:   opts.Seed,
		Rows:   make(map[string]*ScaleRow),
	}
	var results []*scaleResult
	for _, pt := range scalePoints(opts.Scale) {
		r := runScalePoint(pt, opts.Seed)
		results = append(results, r)
		b.Rows[scaleKey(pt.clients)] = r.row
	}
	return b, results
}

// RunScale is the `scale` experiment: the throughput/latency/fleet curve
// over the client count plus the per-tenant admission breakdown at the
// largest point.
func RunScale(opts Options) []*Table {
	_, results := ScaleMeasure(opts)
	tables := scaleTables(results)
	for _, tb := range tables {
		tb.Fprint(opts.out())
	}
	return tables
}

func scaleTables(results []*scaleResult) []*Table {
	curve := &Table{
		ID:    "scale_curve",
		Title: "client count vs throughput, latency and fleet (real stack on clock.Sim)",
		Columns: []string{"clients", "ops", "throughput", "p50", "p99",
			"throttled", "cold starts", "peak NNs", "wall"},
	}
	for _, r := range results {
		curve.Rows = append(curve.Rows, []string{
			fmtOps(float64(r.clients)), fmtOps(float64(r.row.Ops)),
			fmtOps(float64(r.row.Ops)/r.elapsed.Seconds()) + "/s",
			fmtDur(time.Duration(r.row.P50Us) * time.Microsecond),
			fmtDur(time.Duration(r.row.P99Us) * time.Microsecond),
			fmtOps(float64(r.row.Throttled)), fmtOps(float64(r.row.ColdStarts)),
			fmt.Sprintf("%d", r.row.PeakInstances), fmtDur(r.wall),
		})
	}
	curve.Notes = append(curve.Notes,
		"closed-loop tenant clients through rpc → faas → core.Engine → ndb; admission is the engines' tenant token buckets and in-flight caps",
		fmt.Sprintf("clients issue for %d virtual seconds per point and throughput is ops over the time to the last reply; wall column is host simulation time", results[0].seconds))

	last := results[len(results)-1]
	tenants := &Table{
		ID:      "scale_tenants",
		Title:   fmt.Sprintf("per-tenant admission at %s clients", fmtOps(float64(last.clients))),
		Columns: []string{"tenant", "clients", "admitted", "throttled", "throttle%", "p99"},
	}
	for _, ts := range last.row.Tenants {
		pct := 0.0
		if total := ts.Admitted + ts.Throttled; total > 0 {
			pct = 100 * float64(ts.Throttled) / float64(total)
		}
		tenants.Rows = append(tenants.Rows, []string{
			ts.Tenant, fmtOps(float64(ts.Clients)),
			fmtOps(float64(ts.Admitted)), fmtOps(float64(ts.Throttled)),
			fmt.Sprintf("%.1f%%", pct), fmtDur(time.Duration(ts.P99Us) * time.Microsecond),
		})
	}
	tenants.Notes = append(tenants.Notes,
		"crawler is provisioned below demand by design — the throttle column is admission control working")
	return []*Table{curve, tenants}
}

// CheckScaleBaseline re-runs the sweep at the committed baseline's mode
// and seed and fails on ANY divergence: the substrate is bit-exact, so
// every column of every row must match. An intentional behaviour change
// regenerates the file with -baseline scale.
func CheckScaleBaseline(path string, opts Options) error {
	var committed ScaleBaseline
	opts, err := loadBaseline(path, "scale", ScaleSchema, &committed, opts)
	if err != nil {
		return err
	}
	cur, _ := ScaleMeasure(opts)
	var d baselineDiff
	for _, pt := range scalePoints(opts.Scale) {
		key := scaleKey(pt.clients)
		want, ok := committed.Rows[key]
		if !ok {
			return fmt.Errorf("baseline %s lacks point %q (regenerate with -baseline scale)", path, key)
		}
		got := cur.Rows[key]
		d.exact(key, "ops", got.Ops, want.Ops)
		d.exact(key, "throttled", got.Throttled, want.Throttled)
		d.exact(key, "p50_us", got.P50Us, want.P50Us)
		d.exact(key, "p99_us", got.P99Us, want.P99Us)
		d.exact(key, "cold_starts", got.ColdStarts, want.ColdStarts)
		d.exact(key, "peak_instances", got.PeakInstances, want.PeakInstances)
		if len(got.Tenants) != len(want.Tenants) {
			d.exact(key, "tenants", len(got.Tenants), len(want.Tenants))
			continue
		}
		for i, ts := range got.Tenants {
			d.exact(key, "tenant "+ts.Tenant, ts, want.Tenants[i])
		}
	}
	return regressionError("scale regression", path, d.fails)
}
