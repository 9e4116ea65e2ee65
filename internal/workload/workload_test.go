package workload

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
)

// thin aliases keep the fault-injector test readable.
type (
	faasInstance          = faas.Instance
	faasApp               = faas.App
	faasDeploymentOptions = faas.DeploymentOptions
)

var (
	faasNew = faas.New
)

func faasDefaultForTest() faas.Config {
	cfg := faas.DefaultConfig()
	cfg.ColdStart = 0
	cfg.GatewayLatency = 0
	cfg.IdleReclaim = 0
	return cfg
}

type nopApp struct{}

func (nopApp) HandleInvoke(p any) any { return p }
func (nopApp) Shutdown(bool)          {}

func TestSpotifyMixFrequencies(t *testing.T) {
	// Table 2 reproduction check: sampled frequencies within 1 percentage
	// point of the published ones, and 95.23% reads.
	mix := SpotifyMix()
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	counts := map[namespace.OpType]int{}
	for i := 0; i < n; i++ {
		counts[mix.Sample(rng)]++
	}
	want := map[namespace.OpType]float64{
		namespace.OpCreate: 2.7, namespace.OpMkdirs: 0.02, namespace.OpDelete: 0.75,
		namespace.OpMv: 1.3, namespace.OpRead: 69.22, namespace.OpStat: 17, namespace.OpLs: 9.01,
	}
	for op, pct := range want {
		got := 100 * float64(counts[op]) / n
		if math.Abs(got-pct) > 1.0 {
			t.Errorf("%v sampled at %.2f%%, want %.2f%%", op, got, pct)
		}
	}
	reads := counts[namespace.OpRead] + counts[namespace.OpStat] + counts[namespace.OpLs]
	if got := 100 * float64(reads) / n; math.Abs(got-95.23) > 0.25 {
		t.Errorf("reads sampled at %.2f%%, want 95.23%%", got)
	}
}

func TestSingleOpMix(t *testing.T) {
	mix := SingleOpMix(namespace.OpLs)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if op := mix.Sample(rng); op != namespace.OpLs {
			t.Fatalf("sampled %v", op)
		}
	}
}

func TestParetoLoadProperties(t *testing.T) {
	p := NewParetoLoad(25_000, 42)
	series := p.Series(300 * time.Second)
	if len(series) != 20 {
		t.Fatalf("series length = %d, want 20 intervals", len(series))
	}
	var max float64
	for _, v := range series {
		if v < 25_000 {
			t.Fatalf("draw %v below scale (Pareto support starts at x_m)", v)
		}
		if v > max {
			max = v
		}
	}
	if max > 7*25_000 {
		t.Fatalf("draw %v exceeds the 7x spike cap", max)
	}
	// Determinism under a fixed seed.
	p2 := NewParetoLoad(25_000, 42)
	series2 := p2.Series(300 * time.Second)
	for i := range series {
		if series[i] != series2[i] {
			t.Fatal("series not deterministic for fixed seed")
		}
	}
}

func TestParetoBurstsOccur(t *testing.T) {
	p := NewParetoLoad(25_000, 7)
	series := p.Series(3000 * time.Second) // 200 draws
	bursts := 0
	for _, v := range series {
		if v > 3*25_000 {
			bursts++
		}
	}
	// P(X > 3x_m) = (1/3)^2 ≈ 11% for α=2; expect some bursts in 200.
	if bursts == 0 {
		t.Fatal("no bursts in 200 Pareto draws")
	}
}

func TestTreePoolOperations(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		dirs, files := GenerateNamespace(4, 3)
		tree := NewTree(dirs, files)
		rng := rand.New(rand.NewSource(3))
		if tree.FileCount() != 12 {
			t.Fatalf("files = %d", tree.FileCount())
		}
		if f := tree.RandomFile(rng); f == "" {
			t.Fatal("no random file")
		}
		if d := tree.RandomDir(rng); d == "" {
			t.Fatal("no random dir")
		}
		p := tree.NewFilePath(rng)
		if p == "" || tree.FileCount() != 13 {
			t.Fatalf("new file %q, count %d", p, tree.FileCount())
		}
		tree.Remove(p)
		if tree.FileCount() != 12 {
			t.Fatal("remove failed")
		}
		taken := tree.TakeRandomFile(rng)
		if taken == "" || tree.FileCount() != 11 {
			t.Fatal("take failed")
		}
		tree.Add(taken)
		if tree.FileCount() != 12 {
			t.Fatal("add failed")
		}
		if mv := tree.RenameTarget("/bench0000/file00001"); namespace.ParentPath(mv) != "/bench0000" {
			t.Fatalf("rename target %q not a sibling", mv)
		}
		nd := tree.NewDirPath(rng)
		if nd == "" || len(tree.dirs) != 5 {
			t.Fatalf("new dir %q dirs=%d", nd, len(tree.dirs))
		}
		// A delete or mv the service refused leaves the file where it was, so
		// its path goes back into the pool; only a delete that found nothing
		// confirms the path is gone.
		for _, tc := range []struct {
			op   namespace.OpType
			err  error
			want int
		}{
			{namespace.OpDelete, namespace.ErrThrottled, 12},
			{namespace.OpDelete, namespace.ErrTimeout, 12},
			{namespace.OpMv, namespace.ErrThrottled, 12},
			{namespace.OpDelete, namespace.ErrNotFound, 11},
		} {
			issueOp(replyFS{tc.err}, tree, SingleOpMix(tc.op), rng, NewRecorder(clk.Now()), clk)
			if tree.FileCount() != tc.want {
				t.Fatalf("%v answered %v: pool holds %d files, want %d", tc.op, tc.err, tree.FileCount(), tc.want)
			}
		}
	})
}

// replyFS answers every operation with one semantic error (nil: success).
type replyFS struct{ err error }

func (f replyFS) Do(namespace.OpType, string, string) (*namespace.Response, error) {
	return &namespace.Response{Err: namespace.ToWire(f.err)}, nil
}

func TestTreePoolConcurrent(t *testing.T) {
	dirs, files := GenerateNamespace(8, 50)
	tree := NewTree(dirs, files)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				switch rng.Intn(4) {
				case 0:
					tree.NewFilePath(rng)
				case 1:
					tree.TakeRandomFile(rng)
				case 2:
					tree.RandomFile(rng)
				case 3:
					if f := tree.TakeRandomFile(rng); f != "" {
						tree.Add(f)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if tree.FileCount() < 0 {
		t.Fatal("pool corrupted")
	}
}

func TestGenerateNamespaceShapes(t *testing.T) {
	dirs, files := GenerateNamespace(10, 20)
	if len(dirs) != 10 || len(files) != 200 {
		t.Fatalf("generated %d dirs, %d files", len(dirs), len(files))
	}
	dd, df := DeepNamespace("/mvdir", 1000)
	if len(df) != 1000 {
		t.Fatalf("deep files = %d", len(df))
	}
	if dd[0] != "/mvdir" {
		t.Fatalf("deep root = %q", dd[0])
	}
}

func TestPreloadNDBResolvable(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := ndb.DefaultConfig()
		cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
		db := ndb.New(clk, cfg)
		dirs, files := GenerateNamespace(5, 10)
		PreloadNDB(db, dirs, files)
		if db.INodeCount() != 1+5+50 {
			t.Fatalf("inodes = %d", db.INodeCount())
		}
		chain, err := db.ResolvePath(files[len(files)-1])
		if err != nil || len(chain) != 3 {
			t.Fatalf("resolve preloaded: %v %v", chain, err)
		}
		if chain[2].Blocks == nil {
			t.Fatal("preloaded file has no blocks")
		}
		// IDs must not collide with subsequent allocations.
		if id := db.NextID(); id <= chain[2].ID {
			t.Fatalf("NextID %d collides with preloaded %d", id, chain[2].ID)
		}
	})
}

// memFS is an in-memory FS for driver tests.
type memFS struct {
	mu    sync.Mutex
	files map[string]bool
	lat   time.Duration
	clk   *clock.Sim
}

func newMemFS(clk *clock.Sim, files []string, lat time.Duration) *memFS {
	m := &memFS{files: make(map[string]bool), lat: lat, clk: clk}
	for _, f := range files {
		m.files[f] = true
	}
	return m
}

func (m *memFS) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	m.clk.Sleep(m.lat)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op {
	case namespace.OpCreate:
		if m.files[path] {
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrExists)}, nil
		}
		m.files[path] = true
	case namespace.OpDelete:
		if !m.files[path] {
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}, nil
		}
		delete(m.files, path)
	case namespace.OpMv:
		if !m.files[path] {
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}, nil
		}
		delete(m.files, path)
		m.files[dest] = true
	case namespace.OpRead, namespace.OpStat:
		if !m.files[path] && path != "/" {
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}, nil
		}
	}
	return &namespace.Response{}, nil
}

func TestClosedLoopDriverCounts(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		dirs, files := GenerateNamespace(4, 25)
		tree := NewTree(dirs, files)
		fs := newMemFS(clk, files, 0)
		rec := RunClosedLoop(clk, tree, SpotifyMix(), 8, 100, 1, func(int) FS { return fs })
		if got := rec.Completed.Load(); got != 800 {
			t.Fatalf("completed = %d, want 800", got)
		}
		if rec.TransportErrs.Load() != 0 {
			t.Fatalf("transport errors = %d", rec.TransportErrs.Load())
		}
		// Low semantic-error rate: the pool keeps ops mostly valid.
		if errs := rec.SemanticErrs.Load(); errs > 80 {
			t.Fatalf("semantic errors = %d of 800", errs)
		}
		if rec.Overall.Count() == 0 {
			t.Fatal("latencies not recorded")
		}
	})
}

// runRateDrivenOnSim runs the rate-driven loop in virtual time, where its
// pacing is exact, against an in-memory FS of the given service latency.
func runRateDrivenOnSim(t *testing.T, cfg RateConfig, lat time.Duration) *Recorder {
	clk := simtest.New(t)
	dirs, files := GenerateNamespace(4, 50)
	tree := NewTree(dirs, files)
	fs := newMemFS(clk, files, lat)
	var rec *Recorder
	clock.Run(clk, func() { rec = RunRateDriven(clk, tree, cfg, func(int) FS { return fs }) })
	return rec
}

func TestRateDrivenRollover(t *testing.T) {
	// Service latency 20ms → a single client does 50 ops/sec; target
	// 100 ops/sec forces rollover and a drain phase.
	rec := runRateDrivenOnSim(t, RateConfig{
		Clients:  1,
		Duration: 3 * time.Second,
		Targets:  []float64{100},
		Interval: 15 * time.Second,
		Mix:      SingleOpMix(namespace.OpStat),
		Seed:     1,
	}, 20*time.Millisecond)
	// 3 s × 50 ops/s, then the 150 rolled over drain until the first op
	// that ends past 1.5 × Duration: 76 more at 20 ms each from 3.0 s.
	if done := rec.Completed.Load(); done != 150+76 {
		t.Fatalf("completed = %d, want 226: backlog-limited progress, then a bounded drain", done)
	}
}

func TestRateDrivenHitsTargetWhenFast(t *testing.T) {
	rec := runRateDrivenOnSim(t, RateConfig{
		Clients:  4,
		Duration: 5 * time.Second,
		Targets:  []float64{200},
		Interval: 15 * time.Second,
		Mix:      SingleOpMix(namespace.OpStat),
		Seed:     1,
	}, 0)
	if got := rec.Completed.Load(); got != 1000 {
		t.Fatalf("completed = %d, want 1000 (200/s x 5s)", got)
	}
	if rates := rec.Throughput.Rate(); !slices.Equal(rates, []float64{200, 200, 200, 200, 200}) {
		t.Fatalf("throughput series %v, want 200 ops in each of the five seconds", rates)
	}
}

// treeTestMem implements TreeTestFS in memory.
type treeTestMem struct {
	mu sync.Mutex
	m  map[string]bool
}

func (f *treeTestMem) Mknod(p string) error {
	f.mu.Lock()
	f.m[p] = true
	f.mu.Unlock()
	return nil
}

func (f *treeTestMem) Getattr(p string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[p], nil
}

func TestTreeTestDriver(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fs := &treeTestMem{m: map[string]bool{}}
		res := RunTreeTest(clk, TreeTestConfig{Clients: 4, WritesPerClient: 50, ReadsPerClient: 30, Seed: 1},
			func(int) TreeTestFS { return fs })
		if res.WriteOps != 200 || res.ReadOps != 120 {
			t.Fatalf("ops = %d/%d", res.WriteOps, res.ReadOps)
		}
		if res.WriteErrs != 0 || res.ReadErrs != 0 {
			t.Fatalf("errs = %d/%d", res.WriteErrs, res.ReadErrs)
		}
		if res.AggThroughput() < 0 {
			t.Fatal("agg throughput negative")
		}
	})
}

func TestRecorderErrorAccounting(t *testing.T) {
	rec := NewRecorder(clock.Epoch)
	rec.Record(namespace.OpRead, clock.Epoch, time.Millisecond, namespace.ErrConnLost)
	if rec.TransportErrs.Load() != 1 || rec.Completed.Load() != 0 {
		t.Fatal("transport error misaccounted")
	}
	rec.Record(namespace.OpRead, clock.Epoch, time.Millisecond, nil)
	if rec.Completed.Load() != 1 || rec.PerOp[namespace.OpRead].Count() != 1 {
		t.Fatal("success misaccounted")
	}
}

// TestRecorderThrottledAccounting: a reply the admission gate rejected is
// not a served op — the service did no work for it — so it stays out of
// Completed, the throughput series and every histogram (a semantic
// failure, by the hammer-bench rule, stays in).
func TestRecorderThrottledAccounting(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		_, files := GenerateNamespace(1, 4)
		tree := NewTree([]string{"/bench0000"}, files)
		rng := rand.New(rand.NewSource(1))
		rec := NewRecorder(clk.Now())
		issueOp(replyFS{namespace.ErrThrottled}, tree, SingleOpMix(namespace.OpStat), rng, rec, clk)
		if rec.Throttled.Load() != 1 || rec.Completed.Load() != 0 || rec.SemanticErrs.Load() != 0 ||
			rec.Overall.Count() != 0 || rec.PerOp[namespace.OpStat].Count() != 0 || rec.Throughput.Total() != 0 {
			t.Fatalf("throttled reply misaccounted: throttled=%d completed=%d semantic=%d latencies=%d",
				rec.Throttled.Load(), rec.Completed.Load(), rec.SemanticErrs.Load(), rec.Overall.Count())
		}
		issueOp(replyFS{namespace.ErrNotFound}, tree, SingleOpMix(namespace.OpStat), rng, rec, clk)
		if rec.Throttled.Load() != 1 || rec.Completed.Load() != 1 || rec.SemanticErrs.Load() != 1 || rec.Overall.Count() != 1 {
			t.Fatal("semantic failure no longer counts as a served op")
		}
		issueOp(replyFS{}, tree, SingleOpMix(namespace.OpStat), rng, rec, clk)
		if rec.Completed.Load() != 2 || rec.SemanticErrs.Load() != 1 {
			t.Fatal("success misaccounted")
		}
	})
}

// TestPopulationDriver: every class gets its share of the clients and
// its own Recorder, clients issue at their class's rate for the window
// and no longer, each tagged with its tenant.
func TestPopulationDriver(t *testing.T) {
	clk := simtest.New(t)
	dirs, files := GenerateNamespace(4, 50)
	tree := NewTree(dirs, files)
	classes := DefaultTenantClasses()
	if got := SplitClients(classes, 101); !slices.Equal(got, []int{51, 30, 15, 5}) {
		t.Fatalf("SplitClients(101) = %v", got)
	}
	fs := newMemFS(clk, files, time.Millisecond)
	var mu sync.Mutex
	tagged := map[string]int{}
	var recs []*Recorder
	var elapsed time.Duration
	clock.Run(clk, func() {
		start := clk.Now()
		recs = RunPopulation(clk, tree, classes, 100, 10*time.Second, 1, func(tenant string, i int) FS {
			mu.Lock()
			tagged[tenant]++
			mu.Unlock()
			return fs
		})
		elapsed = clk.Since(start)
	})
	if elapsed > 10*time.Second+time.Millisecond {
		t.Fatalf("population ran %v past a 10s window", elapsed)
	}
	counts := SplitClients(classes, 100)
	for i, cls := range classes {
		n := counts[i]
		if tagged[cls.Name] != n {
			t.Fatalf("%s: %d clients tagged, want %d", cls.Name, tagged[cls.Name], n)
		}
		// Closed loop at 1ms service: the rate is the think rate, within
		// Poisson noise.
		want := float64(n) * cls.OpsPerClient * 10
		if got := float64(recs[i].Completed.Load()); got < 0.8*want || got > 1.2*want {
			t.Fatalf("%s: %v ops in 10s, want ≈%v", cls.Name, got, want)
		}
	}
}

func TestFaultInjectorKillsRoundRobin(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fcfg := faasDefaultForTest()
		p := faasNew(clk, fcfg)
		defer p.Close()
		// Two deployments with pre-warmed instances.
		for i := 0; i < 2; i++ {
			p.Register("d", func(inst *faasInstance) faasApp { return nopApp{} },
				faasDeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1, MinInstances: 2})
		}
		stop := clock.NewEvent(clk)
		fi := &FaultInjector{Platform: p, Interval: 10 * time.Millisecond, Deployments: 2}
		injector := clock.NewGroup(clk)
		injector.Go(func() { fi.Run(clk, stop) })
		clk.Sleep(100 * time.Millisecond) // several intervals
		stop.Set()
		injector.Wait()
		if fi.Kills == 0 {
			t.Fatal("no kills recorded")
		}
		if got := p.Stats().Kills; got == 0 {
			t.Fatalf("platform kills = %d", got)
		}
	})
}
