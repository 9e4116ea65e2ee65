package workload

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/namespace"
)

// Recorder accumulates per-operation results.
type Recorder struct {
	Start      time.Time
	Throughput *metrics.Timeseries
	PerOp      [namespace.NumOps]*metrics.Histogram
	Overall    *metrics.Histogram
	Completed  atomic.Uint64
	// SemanticErrs counts expected races (ErrNotFound after a concurrent
	// delete, ErrExists on create races); TransportErrs counts failures
	// after retries.
	SemanticErrs  atomic.Uint64
	TransportErrs atomic.Uint64
	// Throttled counts replies the admission gate rejected
	// (namespace.ErrThrottled): the service did no work for them, so they
	// are neither Completed nor in any histogram.
	Throttled atomic.Uint64
}

// NewRecorder starts recording at start (virtual time).
func NewRecorder(start time.Time) *Recorder {
	r := &Recorder{
		Start:      start,
		Throughput: metrics.NewTimeseries(start),
		Overall:    metrics.NewHistogram(),
	}
	for i := range r.PerOp {
		r.PerOp[i] = metrics.NewHistogram()
	}
	return r
}

// Record accounts one completed operation.
func (r *Recorder) Record(op namespace.OpType, at time.Time, lat time.Duration, err error) {
	if err != nil {
		r.TransportErrs.Add(1)
		return
	}
	r.Completed.Add(1)
	r.Throughput.Incr(at)
	r.Overall.Observe(lat)
	r.PerOp[op].Observe(lat)
}

// issueOp generates and executes one operation of the mix against fs,
// maintaining the tree pool and recording the outcome in rec.
func issueOp(fs FS, tree *Tree, mix Mix, rng *rand.Rand, rec *Recorder, clk *clock.Sim) {
	op := mix.Sample(rng)
	var path, dest string
	switch op {
	case namespace.OpCreate:
		path = tree.NewFilePath(rng)
	case namespace.OpMkdirs:
		path = tree.NewDirPath(rng)
	case namespace.OpDelete:
		path = tree.TakeRandomFile(rng)
	case namespace.OpMv:
		path = tree.TakeRandomFile(rng)
		if path != "" {
			dest = tree.RenameTarget(path)
		}
	case namespace.OpLs:
		path = tree.RandomDir(rng)
	default: // read, stat
		path = tree.RandomFile(rng)
	}
	if path == "" {
		// Pool momentarily empty: degrade to a stat of the root so the
		// op still exercises the system.
		op = namespace.OpStat
		path = "/"
	}
	start := clk.Now()
	resp, err := fs.Do(op, path, dest)
	lat := clk.Since(start)
	if err != nil {
		rec.Record(op, clk.Now(), lat, err)
		// Deregister paths we tentatively claimed.
		if op == namespace.OpCreate {
			tree.Remove(path)
		}
		return
	}
	if !resp.OK() {
		opErr := resp.Error()
		// Give back what the op tentatively claimed from the pool.
		switch op {
		case namespace.OpCreate:
			tree.Remove(path)
		case namespace.OpMv:
			tree.Add(path) // the source still exists
		case namespace.OpDelete:
			if !errors.Is(opErr, namespace.ErrNotFound) {
				tree.Add(path) // refused (throttled, lock timeout): still there
			}
		}
		if errors.Is(opErr, namespace.ErrThrottled) {
			rec.Throttled.Add(1)
			return
		}
		rec.SemanticErrs.Add(1)
		// Semantic failures still count as served operations: the MDS
		// did the work (matches hammer-bench accounting).
		rec.Completed.Add(1)
		rec.Throughput.Incr(clk.Now())
		rec.Overall.Observe(lat)
		rec.PerOp[op].Observe(lat)
		return
	}
	if op == namespace.OpMv && dest != "" {
		tree.Add(dest)
	}
	rec.Record(op, clk.Now(), lat, nil)
}

// RunClosedLoop runs the §5.3 microbenchmark: clients clients, each
// executing opsPerClient operations back-to-back, drawn from mix. fsFor
// supplies each client's FS handle. Returns the recorder.
func RunClosedLoop(clk *clock.Sim, tree *Tree, mix Mix, clients, opsPerClient int,
	seed int64, fsFor func(i int) FS) *Recorder {
	rec := NewRecorder(clk.Now())
	g := clock.NewGroup(clk)
	for i := 0; i < clients; i++ {
		g.Go(func() {
			fs := fsFor(i)
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for n := 0; n < opsPerClient; n++ {
				issueOp(fs, tree, mix, rng, rec, clk)
			}
		})
	}
	g.Wait()
	return rec
}

// RateConfig shapes the Spotify rate-driven workload (§5.2.1).
type RateConfig struct {
	// Clients is the total client count (1,024 in the paper, across 8
	// VMs).
	Clients int
	// Duration is the workload length (300 s).
	Duration time.Duration
	// Targets is the per-interval aggregate ops/sec series (from
	// ParetoLoad.Series).
	Targets []float64
	// Interval is the redraw period (15 s).
	Interval time.Duration
	// Mix is the operation mix.
	Mix Mix
	// Seed randomizes per-client op streams.
	Seed int64
}

// RunRateDriven replays a bursty open-ish loop: every virtual second each
// client owes δ = Δ/n operations; unfinished operations roll over to the
// next second (§5.2.1). Returns the recorder.
func RunRateDriven(clk *clock.Sim, tree *Tree, cfg RateConfig, fsFor func(i int) FS) *Recorder {
	rec := NewRecorder(clk.Now())
	if len(cfg.Targets) == 0 {
		return rec
	}
	g := clock.NewGroup(clk)
	seconds := int(cfg.Duration / time.Second)
	perInterval := int(cfg.Interval / time.Second)
	if perInterval <= 0 {
		perInterval = 1
	}
	for i := 0; i < cfg.Clients; i++ {
		g.Go(func() {
			fs := fsFor(i)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729))
			start := clk.Now()
			quota := 0.0
			for sec := 0; sec < seconds; sec++ {
				intervalIdx := sec / perInterval
				if intervalIdx >= len(cfg.Targets) {
					intervalIdx = len(cfg.Targets) - 1
				}
				quota += cfg.Targets[intervalIdx] / float64(cfg.Clients)
				deadline := start.Add(time.Duration(sec+1) * time.Second)
				for quota >= 1 && clk.Now().Before(deadline) {
					issueOp(fs, tree, cfg.Mix, rng, rec, clk)
					quota--
				}
				if remaining := deadline.Sub(clk.Now()); remaining > 0 {
					clk.Sleep(remaining)
				}
			}
			// Drain the rollover backlog like hammer-bench does, so
			// "falling behind" is visible as completions after the burst.
			for quota >= 1 {
				issueOp(fs, tree, cfg.Mix, rng, rec, clk)
				quota--
				if clk.Since(start) > cfg.Duration+cfg.Duration/2 {
					break
				}
			}
		})
	}
	g.Wait()
	return rec
}

// RunPopulation drives a multi-tenant closed-loop client population for
// duration of virtual time. SplitClients divides clients across classes;
// each client waits a seeded offset inside one think interval, then
// alternates one operation of its class's Mix with an exponentially
// distributed think time (mean 1/OpsPerClient) for as long as its next
// issue still falls inside the window. fsFor supplies client i's handle
// for its tenant (a tenant-tagged rpc.Client on the real stack). Returns
// one Recorder per class, in class order.
func RunPopulation(clk *clock.Sim, tree *Tree, classes []TenantClass, clients int,
	duration time.Duration, seed int64, fsFor func(tenant string, i int) FS) []*Recorder {
	start := clk.Now()
	deadline := start.Add(duration)
	recs := make([]*Recorder, len(classes))
	g := clock.NewGroup(clk)
	next := 0
	for ci, n := range SplitClients(classes, clients) {
		cls, rec := classes[ci], NewRecorder(start)
		recs[ci] = rec
		thinkMean := float64(time.Second) / cls.OpsPerClient
		for i := next; i < next+n; i++ {
			g.Go(func() {
				fs := fsFor(cls.Name, i)
				rng := rand.New(rand.NewSource(seed + int64(i)*7919))
				wait := time.Duration(rng.Float64() * thinkMean)
				for clk.Now().Add(wait).Before(deadline) {
					clk.Sleep(wait)
					issueOp(fs, tree, cls.Mix, rng, rec, clk)
					wait = time.Duration(rng.ExpFloat64() * thinkMean)
				}
			})
		}
		next += n
	}
	g.Wait()
	return recs
}

// TreeTestConfig shapes IndexFS's tree-test (§5.7): per client, writes
// mknods then getattrs of random created files.
type TreeTestConfig struct {
	Clients int
	// WritesPerClient / ReadsPerClient; for the fixed-size workload the
	// caller divides the 1M totals by the client count.
	WritesPerClient int
	ReadsPerClient  int
	Seed            int64
}

// TreeTestFS is the surface tree-test drives; Getattr reports whether the
// row exists.
type TreeTestFS interface {
	Mknod(path string) error
	Getattr(path string) (bool, error)
}

// TreeTestResult carries per-phase throughput.
type TreeTestResult struct {
	WriteOps, ReadOps   uint64
	WriteDur, ReadDur   time.Duration
	WriteErrs, ReadErrs uint64
}

// WriteThroughput returns mknods/sec.
func (r TreeTestResult) WriteThroughput() float64 {
	if r.WriteDur <= 0 {
		return 0
	}
	return float64(r.WriteOps) / r.WriteDur.Seconds()
}

// ReadThroughput returns getattrs/sec.
func (r TreeTestResult) ReadThroughput() float64 {
	if r.ReadDur <= 0 {
		return 0
	}
	return float64(r.ReadOps) / r.ReadDur.Seconds()
}

// AggThroughput returns the writes-followed-by-reads aggregate.
func (r TreeTestResult) AggThroughput() float64 {
	total := r.WriteDur + r.ReadDur
	if total <= 0 {
		return 0
	}
	return float64(r.WriteOps+r.ReadOps) / total.Seconds()
}

// RunTreeTest executes the two-phase tree-test workload.
func RunTreeTest(clk *clock.Sim, cfg TreeTestConfig, fsFor func(i int) TreeTestFS) TreeTestResult {
	var res TreeTestResult
	paths := make([][]string, cfg.Clients)
	fss := make([]TreeTestFS, cfg.Clients)
	for i := range fss {
		fss[i] = fsFor(i)
	}

	// Phase 1: mknod.
	start := clk.Now()
	g := clock.NewGroup(clk)
	var werrs, wops atomic.Uint64
	for i := 0; i < cfg.Clients; i++ {
		g.Go(func() {
			for n := 0; n < cfg.WritesPerClient; n++ {
				p := "/tt/c" + itoa(uint64(i)) + "/f" + itoa(uint64(n))
				if err := fss[i].Mknod(p); err != nil {
					werrs.Add(1)
					continue
				}
				wops.Add(1)
				paths[i] = append(paths[i], p)
			}
		})
	}
	g.Wait()
	res.WriteDur = clk.Since(start)
	res.WriteOps = wops.Load()
	res.WriteErrs = werrs.Load()

	// Phase 2: random getattr over own created files.
	start = clk.Now()
	var rerrs, rops atomic.Uint64
	for i := 0; i < cfg.Clients; i++ {
		g.Go(func() {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			own := paths[i]
			if len(own) == 0 {
				return
			}
			for n := 0; n < cfg.ReadsPerClient; n++ {
				p := own[rng.Intn(len(own))]
				if ok, err := fss[i].Getattr(p); err != nil || !ok {
					rerrs.Add(1)
					continue
				}
				rops.Add(1)
			}
		})
	}
	g.Wait()
	res.ReadDur = clk.Since(start)
	res.ReadOps = rops.Load()
	res.ReadErrs = rerrs.Load()
	return res
}
