package bench

// The scale experiment answers the question the goroutine-per-client
// drivers cannot: what does the metadata service's throughput/latency
// curve look like from 10³ to 10⁶ concurrent clients? It runs entirely
// on the internal/sim discrete-event scheduler — each client is a
// closed-loop state machine (think → admit → queue → service → think)
// costing one pending heap event, so a 100k-client point simulates in a
// couple of wall seconds and a million-client point stays tractable.
//
// The service surface is a calibrated model, not the full engine stack:
// tenants pass the REAL tenant.Registry admission path (token buckets,
// in-flight caps, lambdafs_tenant_* instruments) and then queue onto
// per-shard single-server FIFOs under weighted fair queuing, with
// per-op service times matching the hotpath experiment's observed
// shape. Shard count scales elastically with the client population
// (one shard per ~4k clients — the serverless story), and tenants are
// spread over shards by tenant.Placement's load-proportional
// allocation.
//
// Every point is bit-deterministic: per-client splitmix64 PRNGs, the
// scheduler's FIFO-stable heap, and integer virtual time make the
// scheduler digest, op counts, and latency quantiles exact replay
// invariants — which is what the committed BENCH_scale.json gates on.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/sim"
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/tenant"
	"lambdafs/internal/workload"
)

// ScaleSchema identifies the BENCH_scale.json format.
const ScaleSchema = "lambdafs-scale-baseline/v1"

// scaleServiceNS is the modeled per-op shard service time (ns), indexed
// by namespace.OpType: reads are cache-shaped, writes pay the coherence
// round.
var scaleServiceNS = [namespace.NumOps]int64{
	namespace.OpCreate: 150_000,
	namespace.OpMkdirs: 150_000,
	namespace.OpDelete: 150_000,
	namespace.OpMv:     200_000,
	namespace.OpRead:   60_000,
	namespace.OpStat:   40_000,
	namespace.OpLs:     80_000,
}

// scalePoint is one measured (population, duration) point.
type scalePoint struct {
	clients int
	seconds int
}

func scalePoints(opts Options) []scalePoint {
	switch {
	case opts.Tiny:
		return []scalePoint{{1_000, 2}, {10_000, 2}}
	case opts.Quick:
		return []scalePoint{{1_000, 8}, {10_000, 8}, {100_000, 8}}
	default:
		return []scalePoint{{10_000, 10}, {100_000, 10}, {1_000_000, 10}}
	}
}

// ScaleRow is one point of the committed scale baseline. All fields are
// exact replay invariants of (mode, seed).
type ScaleRow struct {
	Clients   int    `json:"clients"`
	Shards    int    `json:"shards"`
	Ops       uint64 `json:"ops"`
	Throttled uint64 `json:"throttled"`
	P50Us     int64  `json:"p50_us"`
	P99Us     int64  `json:"p99_us"`
	// Digest is the scheduler's executed-event-order digest: any change
	// to the model's scheduling decisions shows up here first.
	Digest string `json:"digest"`
}

// ScaleBaseline is the committed BENCH_scale.json document.
type ScaleBaseline struct {
	Schema string               `json:"schema"`
	Mode   string               `json:"mode"`
	Seed   int64                `json:"seed"`
	Rows   map[string]*ScaleRow `json:"rows"`
}

// scaleTenantStat is one tenant's outcome at a measured point.
type scaleTenantStat struct {
	name      string
	clients   int
	admitted  uint64
	throttled uint64
	p99       time.Duration
}

// scaleResult is one simulated point.
type scaleResult struct {
	scalePoint
	shards    int
	ops       uint64
	throttled uint64
	p50, p99  time.Duration
	digest    uint64
	wall      time.Duration
	tenants   []scaleTenantStat
	alerts    []string
}

// splitmix64 advances a 64-bit PRNG state; one word of state per client
// is what keeps a million-client population cheap.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFloat maps a PRNG draw onto [0, 1).
func unitFloat(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / float64(1<<53)
}

// scaleClient is one simulated client's whole state.
type scaleClient struct {
	rng   uint64
	class uint8
	shard int32
}

// scaleReq is one admitted operation waiting in a shard queue.
type scaleReq struct {
	ci      int32
	class   uint8
	op      uint8
	arrival time.Duration
}

// scaleShard is one modeled namespace shard: a single server draining a
// weighted-fair queue.
type scaleShard struct {
	q    *tenant.FairQueue[scaleReq]
	busy bool
}

// runScalePoint simulates one (clients, seconds) point.
func runScalePoint(pt scalePoint, seed int64) *scaleResult {
	wallStart := time.Now() //vet:allow virtualtime reports host simulation runtime, not simulated latency
	classes := workload.DefaultTenantClasses()
	horizon := time.Duration(pt.seconds) * time.Second

	sch := sim.New(pt.clients + 64)
	reg := telemetry.NewRegistry()
	treg := tenant.NewRegistry(sch.Clock(), reg)
	sc := telemetry.NewScraper(sch.Clock(), reg, time.Second)
	sloEng := slo.New(slo.Config{Registry: reg})
	sloEng.AddRules(slo.DefaultRules())
	sc.OnSnapshot(sloEng.Observe)

	// Tenant population: class shares of the client count (remainder to
	// the first class), admission contracts derived from each tenant's
	// expected demand.
	names := make([]string, len(classes))
	weights := make([]float64, len(classes))
	classClients := make([]int, len(classes))
	thinkMeanNS := make([]float64, len(classes))
	assigned := 0
	for i, cls := range classes {
		names[i] = cls.Name
		weights[i] = cls.Weight
		classClients[i] = cls.Clients(pt.clients)
		assigned += classClients[i]
		thinkMeanNS[i] = float64(time.Second) / cls.OpsPerClient
	}
	classClients[0] += pt.clients - assigned
	demand := make(map[string]float64, len(classes))
	for i, cls := range classes {
		treg.Register(cls.AdmissionClass(classClients[i]))
		demand[cls.Name] = float64(classClients[i]) * cls.OpsPerClient
	}

	// Pre-sampled cumulative mix thresholds per class (avoids touching
	// workload.Mix.Sample's rand.Rand in the event loop).
	cum := make([][]float64, len(classes))
	ops := make([][]uint8, len(classes))
	for i, cls := range classes {
		total := 0.0
		for _, w := range cls.Mix {
			total += w.Weight
		}
		acc := 0.0
		for _, w := range cls.Mix {
			acc += w.Weight
			cum[i] = append(cum[i], acc/total)
			ops[i] = append(ops[i], uint8(w.Op))
		}
	}

	// Elastic shards: one per ~4k clients, and load-proportional tenant
	// spreads over them.
	nShards := pt.clients / 4000
	if nShards < 8 {
		nShards = 8
	}
	place := tenant.NewPlacement(nShards)
	place.RebalanceProportional(demand)
	shards := make([]scaleShard, nShards)
	for i := range shards {
		shards[i].q = tenant.NewFairQueue[scaleReq]()
	}

	// Client state machines.
	clients := make([]scaleClient, pt.clients)
	ci := 0
	for classIdx := range classes {
		for k := 0; k < classClients[classIdx]; k++ {
			clients[ci] = scaleClient{
				rng:   uint64(seed)*0x9e3779b97f4a7c15 + uint64(ci)*0xbf58476d1ce4e5b9 + 1,
				class: uint8(classIdx),
				shard: int32(place.ClientShard(names[classIdx], k)),
			}
			ci++
		}
	}

	res := &scaleResult{scalePoint: pt, shards: nShards}
	estOps := int(float64(pt.clients) * float64(pt.seconds) * 1.3)
	lat := make([]int64, 0, estOps)
	perTenantLat := make([][]int64, len(classes))
	for i, n := range classClients {
		perTenantLat[i] = make([]int64, 0, n*pt.seconds*2)
	}

	var issue []func() // per-client issue closures, allocated once
	next := func(i int32) {
		c := &clients[i]
		think := time.Duration(-math.Log(1-unitFloat(&c.rng)) * thinkMeanNS[c.class])
		sch.After(think, issue[i])
	}
	var startService func(si int32)
	startService = func(si int32) {
		sh := &shards[si]
		req, ok := sh.q.Pop()
		if !ok {
			sh.busy = false
			return
		}
		sh.busy = true
		sch.After(time.Duration(scaleServiceNS[req.op]), func() {
			d := int64(sch.Now() - req.arrival)
			lat = append(lat, d)
			perTenantLat[req.class] = append(perTenantLat[req.class], d)
			res.ops++
			treg.Done(names[req.class])
			next(req.ci)
			startService(si)
		})
	}
	issue = make([]func(), pt.clients)
	for i := range issue {
		i := int32(i)
		issue[i] = func() {
			c := &clients[i]
			u := unitFloat(&c.rng)
			classIdx := c.class
			opIdx := 0
			for opIdx < len(cum[classIdx])-1 && u > cum[classIdx][opIdx] {
				opIdx++
			}
			if err := treg.Admit(names[classIdx]); err != nil {
				res.throttled++
				next(i)
				return
			}
			sh := &shards[c.shard]
			sh.q.Push(names[classIdx], weights[classIdx],
				scaleReq{ci: i, class: classIdx, op: ops[classIdx][opIdx], arrival: sch.Now()})
			if !sh.busy {
				startService(c.shard)
			}
		}
	}

	// Staggered starts: uniform over one think interval.
	for i := range clients {
		c := &clients[i]
		sch.After(time.Duration(unitFloat(&c.rng)*thinkMeanNS[c.class]), issue[int32(i)])
	}
	// One telemetry scrape per virtual second feeds the SLO engine.
	var tick func()
	tick = func() {
		sc.ScrapeNow()
		if sch.Now()+time.Second <= horizon {
			sch.After(time.Second, tick)
		}
	}
	sch.After(time.Second, tick)

	sch.RunUntil(horizon)

	res.digest = sch.Digest()
	res.p50, res.p99 = latQuantiles(lat)
	for i := range classes {
		_, p99 := latQuantiles(perTenantLat[i])
		t := treg.Lookup(names[i])
		res.tenants = append(res.tenants, scaleTenantStat{
			name:      names[i],
			clients:   classClients[i],
			admitted:  uint64(t.Admitted()),
			throttled: uint64(t.Throttled()),
			p99:       p99,
		})
	}
	fired := map[string]bool{}
	for _, tr := range sloEng.Transitions() {
		if tr.To == slo.StateFiring && !fired[tr.Rule] {
			fired[tr.Rule] = true
			res.alerts = append(res.alerts, tr.Rule)
		}
	}
	sort.Strings(res.alerts)
	res.wall = time.Since(wallStart) //vet:allow virtualtime host-runtime measurement is genuinely wall-clock
	return res
}

// latQuantiles sorts in place and returns (p50, p99); zeros when empty.
func latQuantiles(lat []int64) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return time.Duration(idx(0.50)), time.Duration(idx(0.99))
}

// ScaleMeasure runs the mode's client-count sweep and returns the
// baseline document plus the results for rendering.
func ScaleMeasure(opts Options) (*ScaleBaseline, []*scaleResult) {
	b := &ScaleBaseline{
		Schema: ScaleSchema,
		Mode:   baselineMode(opts),
		Seed:   opts.Seed,
		Rows:   make(map[string]*ScaleRow),
	}
	var results []*scaleResult
	for _, pt := range scalePoints(opts) {
		r := runScalePoint(pt, opts.Seed)
		results = append(results, r)
		b.Rows[fmt.Sprintf("c%d", pt.clients)] = &ScaleRow{
			Clients:   pt.clients,
			Shards:    r.shards,
			Ops:       r.ops,
			Throttled: r.throttled,
			P50Us:     r.p50.Microseconds(),
			P99Us:     r.p99.Microseconds(),
			Digest:    fmt.Sprintf("%016x", r.digest),
		}
	}
	return b, results
}

// RunScale is the `scale` experiment: the throughput/p99-vs-client-count
// curve plus the per-tenant admission breakdown at the largest point.
func RunScale(opts Options) []*Table {
	_, results := ScaleMeasure(opts)
	tables := scaleTables(results)
	for _, tb := range tables {
		tb.Fprint(opts.out())
	}
	return tables
}

// ScaleProbe runs a single point of the scale model (the shell's
// interactive entry point).
func ScaleProbe(clients, seconds int, seed int64) []*Table {
	return scaleTables([]*scaleResult{runScalePoint(scalePoint{clients, seconds}, seed)})
}

func scaleTables(results []*scaleResult) []*Table {
	curve := &Table{
		ID:    "scale_curve",
		Title: "client count vs throughput and latency (discrete-event model)",
		Columns: []string{"clients", "shards", "ops", "throughput",
			"p50", "p99", "throttled", "wall"},
	}
	for _, r := range results {
		thr := float64(r.ops) / float64(r.seconds)
		curve.Rows = append(curve.Rows, []string{
			fmtOps(float64(r.clients)), fmt.Sprintf("%d", r.shards),
			fmtOps(float64(r.ops)), fmtOps(thr) + "/s",
			fmtDur(r.p50), fmtDur(r.p99),
			fmtOps(float64(r.throttled)), fmtDur(r.wall),
		})
	}
	curve.Notes = append(curve.Notes,
		"closed-loop clients on the internal/sim event heap; admission via tenant token buckets; per-shard WFQ service model",
		fmt.Sprintf("virtual duration %ds per point; wall column is host simulation time", results[0].seconds))

	last := results[len(results)-1]
	tenants := &Table{
		ID:      "scale_tenants",
		Title:   fmt.Sprintf("per-tenant admission at %s clients", fmtOps(float64(last.clients))),
		Columns: []string{"tenant", "clients", "admitted", "throttled", "throttle%", "p99"},
	}
	for _, ts := range last.tenants {
		total := ts.admitted + ts.throttled
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ts.throttled) / float64(total)
		}
		tenants.Rows = append(tenants.Rows, []string{
			ts.name, fmtOps(float64(ts.clients)),
			fmtOps(float64(ts.admitted)), fmtOps(float64(ts.throttled)),
			fmt.Sprintf("%.1f%%", pct), fmtDur(ts.p99),
		})
	}
	if len(last.alerts) > 0 {
		tenants.Notes = append(tenants.Notes,
			fmt.Sprintf("SLO rules fired during the run: %v", last.alerts))
	} else {
		tenants.Notes = append(tenants.Notes, "no SLO rules fired during the run")
	}
	tenants.Notes = append(tenants.Notes,
		"crawler is provisioned below demand by design — the throttle column is admission control working")
	return []*Table{curve, tenants}
}

// CheckScaleBaseline re-runs the sweep at the committed baseline's mode
// and seed and fails on ANY divergence: the model is bit-deterministic,
// so op counts, throttle counts, latency quantiles, and the scheduler
// digest must all match exactly. An intentional model change regenerates
// the file with -baseline scale.
func CheckScaleBaseline(path string, opts Options) error {
	var committed ScaleBaseline
	opts, err := loadBaseline(path, "scale", ScaleSchema, &committed, opts)
	if err != nil {
		return err
	}
	cur, _ := ScaleMeasure(opts)
	var fails []string
	for _, pt := range scalePoints(opts) {
		key := fmt.Sprintf("c%d", pt.clients)
		want, ok := committed.Rows[key]
		if !ok {
			return fmt.Errorf("baseline %s lacks point %q (regenerate with -baseline scale)", path, key)
		}
		got := cur.Rows[key]
		if got.Digest != want.Digest {
			fails = append(fails, fmt.Sprintf(
				"%s: scheduler digest %s, baseline %s (event stream diverged)",
				key, got.Digest, want.Digest))
		}
		if got.Ops != want.Ops || got.Throttled != want.Throttled {
			fails = append(fails, fmt.Sprintf(
				"%s: ops/throttled %d/%d, baseline %d/%d",
				key, got.Ops, got.Throttled, want.Ops, want.Throttled))
		}
		if got.P50Us != want.P50Us || got.P99Us != want.P99Us {
			fails = append(fails, fmt.Sprintf(
				"%s: p50/p99 %dus/%dus, baseline %dus/%dus",
				key, got.P50Us, got.P99Us, want.P50Us, want.P99Us))
		}
		if got.Shards != want.Shards {
			fails = append(fails, fmt.Sprintf(
				"%s: %d shards, baseline %d", key, got.Shards, want.Shards))
		}
	}
	return regressionError("scale model regression", path, fails)
}
