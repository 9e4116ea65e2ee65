package bench

import (
	"fmt"
	"time"

	"lambdafs"
	"lambdafs/internal/cephfs"
	"lambdafs/internal/clock"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/metrics"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/rpc"
	"lambdafs/internal/workload"
)

// microResult is one (system, op, size) measurement of §5.3.
type microResult struct {
	throughput float64
	meanLat    time.Duration
	costPerSec float64 // provisioned/serverful cost rate for Figure 13
	vcpuUsed   float64
}

// microSystem builds a system under test for the scaling experiments.
type microSystem struct {
	name string
	// build prepares the system on clk with the given vCPU budget and
	// preloaded namespace, returning the per-client FS factory, a cost
	// probe (called after the run; $/sec of the run), and a closer.
	build func(clk *clock.Sim, vcpus int, dirs, files []string) (func(int) workload.FS, func(elapsed time.Duration) float64, func())
}

func microTreeShape(s Scale) (dirs, filesPerDir int) {
	// A smaller quick tree keeps the re-reference rate (and therefore the
	// cache behaviour) comparable to the full-size run despite the reduced
	// op counts.
	return scaled(s, 64, 16, 8), scaled(s, 512, 64, 32)
}

// microClients is the client axis of Figures 11 and 13.
func microClients(s Scale) []int {
	return scaled(s, []int{8, 16, 32, 64, 128, 256, 512, 1024}, []int{8, 64, 256}, []int{8, 64})
}

// microOpsPerClient is what every sweep point measures per client.
func microOpsPerClient(s Scale) int { return scaled(s, 3072, 96, 48) }

func microOps() []namespace.OpType {
	return []namespace.OpType{namespace.OpRead, namespace.OpLs, namespace.OpStat,
		namespace.OpCreate, namespace.OpMkdirs}
}

// microSystems are the five systems of Figures 11 and 12.
func microSystems(seed int64) []microSystem {
	return []microSystem{lambdaMicro(seed, nil), hopsMicro(false), hopsMicro(true), infiniMicro(), cephMicro()}
}

// lambdaMicro builds λFS for the scaling experiments. tweak, when non-nil,
// adjusts its config: Figure 14's instance caps, ablation-rpc's
// replacement probabilities.
func lambdaMicro(seed int64, tweak func(*lambdafs.Config)) microSystem {
	return lambdaMicroWith(seed, tweak, func(c *lambdafs.Cluster) func(int) workload.FS {
		client := lambdaClients(c, 8)
		return func(i int) workload.FS { return client(i) }
	})
}

// lambdaMicroWith is lambdaMicro with the clients clients builds on the
// cluster.
func lambdaMicroWith(seed int64, tweak func(*lambdafs.Config), clients func(*lambdafs.Cluster) func(int) workload.FS) microSystem {
	return microSystem{
		name: "λFS",
		build: func(clk *clock.Sim, vcpus int, dirs, files []string) (func(int) workload.FS, func(time.Duration) float64, func()) {
			cfg := lambdaConfig(clk, seed)
			cfg.Platform.TotalVCPU = float64(vcpus)
			cfg.MinInstancesPerDeployment = 1
			if tweak != nil {
				tweak(&cfg)
			}
			if float64(cfg.Deployments)*cfg.NameNodeVCPU > cfg.Platform.TotalVCPU {
				// Small budgets cannot host 16 deployments of 6.25 vCPU;
				// shrink the NameNodes, keeping the deployment count
				// (namespace partitioning is deployment-count-based).
				cfg.NameNodeVCPU = max(cfg.Platform.TotalVCPU/float64(cfg.Deployments), 0.5)
				cfg.MinInstancesPerDeployment = 0
			}
			c := mustLambda(cfg)
			workload.PreloadNDB(c.Store(), dirs, files)
			cost := func(elapsed time.Duration) float64 {
				// Figure 13 prices λFS under the simplified (provisioned)
				// model: the instantaneous rate of the fleet that served
				// the measured phase.
				return float64(c.Platform().ActiveInstances()) * cfg.NameNodeRAMGB * metrics.LambdaGBSecondUSD
			}
			return clients(c), cost, c.Close
		},
	}
}

// hopsMicro builds serverful HopsFS, or HopsFS+Cache, on the shared NDB
// deployment: one 16-vCPU NameNode per 16 vCPU of the budget, billed as a
// serverful fleet.
func hopsMicro(withCache bool) microSystem {
	name := "HopsFS"
	if withCache {
		name = "HopsFS+Cache"
	}
	return microSystem{
		name: name,
		build: func(clk *clock.Sim, vcpus int, dirs, files []string) (func(int) workload.FS, func(time.Duration) float64, func()) {
			cfg := hopsConfig(clk, vcpus, withCache)
			c := mustLambda(cfg)
			workload.PreloadNDB(c.Store(), dirs, files)
			nns := newHopsNameNodes(c, hopsRPCHandlers, withCache)
			fsFor := func(i int) workload.FS { return &hopsFS{nns: nns, id: fmt.Sprintf("c%04d", i)} }
			cost := func(time.Duration) float64 {
				return float64(cfg.Deployments) * cfg.NameNodeVCPU * metrics.VMvCPUSecondUSD
			}
			return fsFor, cost, c.Close
		},
	}
}

// hopsConfig is HopsFS (§5.1) as λFS's own NameNode on a fixed serverful
// fleet: one 16-vCPU NameNode per deployment, max(vcpus/16, 1) of them,
// up before the run and never reclaimed, with no subtree offloading. Plain
// HopsFS caches nothing, so its NameNodes are stateless and run no
// coherence protocol; HopsFS+Cache keeps λFS's cache and coordinator. Its
// clients are hopsFS.
func hopsConfig(clk *clock.Sim, vcpus int, withCache bool) lambdafs.Config {
	cfg := lambdaConfig(clk, 0) // hopsFS uses no rpc client, so no seed
	cfg.Deployments, cfg.NameNodeVCPU = max(vcpus/16, 1), 16
	cfg.MinInstancesPerDeployment, cfg.MaxInstancesPerDeployment = 1, 1
	cfg.Platform.TotalVCPU = cfg.NameNodeVCPU * float64(cfg.Deployments)
	cfg.Platform.MaxUtilization = 1
	cfg.Platform.ColdStart = 0
	cfg.Platform.IdleReclaim = 0
	cfg.OffloadLatency = -1
	if !withCache {
		cfg.Engine.CacheBudget = -1
	}
	return cfg
}

const (
	// hopsRPCHandlers bounds the requests one HopsFS NameNode serves at
	// once (the evaluation's 200).
	hopsRPCHandlers = 200
	// hopsOneWay is a HopsFS client's serverful TCP latency, each way.
	hopsOneWay = 300 * time.Microsecond
)

// hopsNameNode is one serverful HopsFS NameNode: its deployment's one
// instance and the RPC handler pool every client shares.
type hopsNameNode struct {
	inst     *faas.Instance
	eng      *core.Engine
	handlers *clock.Mailbox[struct{}] // one token per free handler
}

// hopsNameNodes is what the HopsFS clients of one cluster share: its
// NameNodes, in deployment order, and, for HopsFS+Cache, λFS's ring.
type hopsNameNodes struct {
	clk  *clock.Sim
	ring *partition.Ring // nil: clients go round-robin
	nns  []hopsNameNode
}

// newHopsNameNodes puts handlers RPC handlers in front of each of c's
// NameNodes; routed, clients route with the cluster's ring.
func newHopsNameNodes(c *lambdafs.Cluster, handlers int, routed bool) *hopsNameNodes {
	s := &hopsNameNodes{clk: c.Clock()}
	if routed {
		s.ring = c.System().Ring()
	}
	p := c.Platform()
	for dep := range p.Deployments() {
		inst := p.Deployment(dep).Warm()[0]
		nn := hopsNameNode{inst: inst, eng: inst.App().(*core.NameNode).Engine(), handlers: clock.NewMailbox[struct{}](s.clk)}
		for range handlers {
			nn.handlers.Send(struct{}{})
		}
		s.nns = append(s.nns, nn)
	}
	return s
}

// hopsFS is a HopsFS client: every op goes over TCP to one NameNode,
// the one λFS's ring routes it to for HopsFS+Cache, the next in the
// client's own round-robin for HopsFS, and waits for one of its handlers.
type hopsFS struct {
	nns     *hopsNameNodes
	id      string
	rr, seq uint64
}

func (f *hopsFS) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	f.seq++
	req := namespace.Request{Op: op, Path: path, Dest: dest, ClientID: f.id, Seq: f.seq}
	s := f.nns
	var nn *hopsNameNode
	if s.ring != nil {
		nn = &s.nns[s.ring.Route(op, path)]
	} else {
		f.rr++
		nn = &s.nns[f.rr%uint64(len(s.nns))]
	}
	s.clk.Sleep(hopsOneWay)
	nn.handlers.Recv()
	v, err := nn.inst.Serve(func() any { return nn.eng.Execute(req) })
	nn.handlers.Send(struct{}{})
	s.clk.Sleep(hopsOneWay)
	if err != nil {
		return nil, err
	}
	return v.(*namespace.Response), nil
}

// infiniMicro builds InfiniCache (§5.1) on vcpus: 16 static NameNodes of
// vcpus/16 × 0.9 vCPU each, billed as a serverful fleet.
func infiniMicro() microSystem {
	return microSystem{
		name: "InfiniCache",
		build: func(clk *clock.Sim, vcpus int, dirs, files []string) (func(int) workload.FS, func(time.Duration) float64, func()) {
			cfg := lambdaConfig(clk, 0) // httpFS uses no rpc client, so no seed
			cfg.Platform.TotalVCPU = float64(vcpus)
			cfg.NameNodeVCPU = float64(vcpus) / float64(cfg.Deployments) * 0.9
			c := infiniCache(cfg)
			workload.PreloadNDB(c.Store(), dirs, files)
			fsFor := func(i int) workload.FS { return &httpFS{sys: c.System(), id: fmt.Sprintf("c%04d", i)} }
			cost := func(time.Duration) float64 { return float64(vcpus) * metrics.VMvCPUSecondUSD }
			return fsFor, cost, c.Close
		},
	}
}

// infiniCache is InfiniCache (FAST '20) as the paper deploys it for
// metadata (§5.1): λFS's NameNode in a static function fleet, one warm
// instance per deployment that is neither reclaimed nor scaled out, each
// serving 8 invocations at once, with no subtree offloading. Its clients
// are httpFS. So it is λFS minus its TCP path and its auto-scaling.
func infiniCache(cfg lambdafs.Config) *lambdafs.Cluster {
	cfg.MinInstancesPerDeployment, cfg.MaxInstancesPerDeployment = 1, 1
	cfg.Platform.IdleReclaim = 0
	cfg.ConcurrencyLevel = 8
	cfg.OffloadLatency = -1
	return mustLambda(cfg)
}

// httpFS is an InfiniCache client: every op is one HTTP invocation of its
// deployment's function, with no ReplyTo, so no TCP connection back.
type httpFS struct {
	sys *core.System
	id  string
	seq uint64
}

func (f *httpFS) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	f.seq++
	req := namespace.Request{Op: op, Path: path, Dest: dest, ClientID: f.id, Seq: f.seq}
	v, err := f.sys.Invoke(f.sys.Ring().Route(op, path), rpc.Payload{Req: req})
	if err != nil {
		return nil, err
	}
	resp, ok := v.(*namespace.Response)
	if !ok || resp == nil {
		return nil, namespace.ErrUnavailable
	}
	return resp, nil
}

func cephMicro() microSystem {
	return microSystem{
		name: "CephFS",
		build: func(clk *clock.Sim, vcpus int, dirs, files []string) (func(int) workload.FS, func(time.Duration) float64, func()) {
			cfg := cephfs.DefaultConfig()
			cfg.MDSServers = vcpus / 16
			if cfg.MDSServers < 1 {
				cfg.MDSServers = 1
			}
			sys := cephfs.New(clk, cfg)
			sys.Preload(dirs, files)
			fsFor := func(i int) workload.FS { return sys.NewClient(fmt.Sprintf("c%04d", i)) }
			cost := func(time.Duration) float64 { return float64(vcpus) * metrics.VMvCPUSecondUSD }
			return fsFor, cost, func() {}
		},
	}
}

// microPoint runs one point of a §5.3 sweep: runMicro, or a fake the
// sweep goldens substitute to pin every layout at every scale.
var microPoint = runMicro

// timeOp times one op on a fresh 512-vCPU deployment of sys preloaded with
// dirs and files: Table 3's directory mv, ablation-batch's delete.
func timeOp(sys microSystem, dirs, files []string, op namespace.OpType, src, dest string) time.Duration {
	clk := clock.NewSim()
	defer clk.Close()
	var fsFor func(int) workload.FS
	var closer func()
	clock.Run(clk, func() { fsFor, _, closer = sys.build(clk, 512, dirs, files) })
	defer func() { clock.Run(clk, closer) }()
	fs := fsFor(0)
	var lat time.Duration
	clock.Run(clk, func() {
		start := clk.Now()
		resp, err := fs.Do(op, src, dest)
		if err != nil || !resp.OK() {
			lat = -1
			return
		}
		lat = clk.Since(start)
	})
	return lat
}

// runMicro executes one closed-loop microbenchmark point.
func runMicro(opts Options, sys microSystem, op namespace.OpType, clients, vcpus, opsPerClient int) microResult {
	clk := clock.NewSim()
	defer clk.Close()
	dirs, files := workload.GenerateNamespace(microTreeShape(opts.Scale))
	// Construction pre-warms instances (cold-start sleeps): run it
	// registered on the DES clock.
	var fsFor func(int) workload.FS
	var costProbe func(time.Duration) float64
	var closer func()
	clock.Run(clk, func() { fsFor, costProbe, closer = sys.build(clk, vcpus, dirs, files) })
	defer func() { clock.Run(clk, closer) }()
	tree := workload.NewTree(dirs, files)
	// Warm-up pass: client FS handles are reused, so connections are
	// established and instances provisioned before measurement (the
	// artifact's benchmarks run repeated trials for the same reason).
	fss := make([]workload.FS, clients)
	for i := range fss {
		fss[i] = fsFor(i)
	}
	cached := func(i int) workload.FS { return fss[i] }
	warm := max(opsPerClient/4, 8)
	var rec *workload.Recorder
	var elapsed time.Duration
	clock.Run(clk, func() {
		workload.RunClosedLoop(clk, tree, workload.SingleOpMix(op), clients, warm, opts.Seed+99, cached)
		start := clk.Now()
		rec = workload.RunClosedLoop(clk, tree, workload.SingleOpMix(op), clients, opsPerClient, opts.Seed, cached)
		elapsed = clk.Since(start)
	})
	res := microResult{meanLat: rec.Overall.Mean()}
	if elapsed > 0 {
		res.throughput = float64(rec.Completed.Load()) / elapsed.Seconds()
	}
	clock.Run(clk, func() { res.costPerSec = costProbe(elapsed) })
	return res
}

// figure is one closed-loop sweep of §5.3 as data: its points are every
// (clients, vCPU) pair of its two axes. sweep runs every op × system ×
// point; tablePerOp or oneTable lays the results out. The other paper
// experiments cannot be figures: tab3 and ablation-batch time one op
// (timeOp), not a closed loop; fig16 drives IndexFS's mknod/getattr
// tree-test clients, which are no workload.FS; and the Spotify figures
// (8–10, 15) are open-loop, rate-driven timelines.
type figure struct {
	id, title      string // a per-op table's title formats its op (%s)
	systems        []microSystem
	ops            []namespace.OpType
	clients, vcpus []int
	cols           []string // every column heading, the row label's first
	// cells formats one row's results: a system's points, or in a oneTable
	// without labels an op's systems at the figure's one point.
	cells func(rs []microResult) []string
	// note is every table's note. With noteRatio set (tablePerOp only) it
	// formats the ratio noteRatio picks from the op's results, by
	// [system][point], and a table whose denominator is not positive has
	// none.
	note      string
	noteRatio func(rs [][]microResult) (num, den float64)
	labels    []string // oneTable: a row per system, under these labels
}

// sweep runs every op × system × point of f, each point on its own
// clock.Sim, and returns the results by index: [op][system][point].
func sweep(opts Options, f figure) [][][]microResult {
	per := microOpsPerClient(opts.Scale)
	res := make([][][]microResult, len(f.ops))
	for o, op := range f.ops {
		res[o] = make([][]microResult, len(f.systems))
		for s, sys := range f.systems {
			for _, clients := range f.clients {
				for _, vcpus := range f.vcpus {
					res[o][s] = append(res[o][s], microPoint(opts, sys, op, clients, vcpus, per))
				}
			}
		}
	}
	return res
}

// tablePerOp renders one table per op with a row per system and a cell
// per point (Figures 11–13).
func tablePerOp(opts Options, f figure) []*Table {
	res := sweep(opts, f)
	tables := make([]*Table, len(f.ops))
	for o, op := range f.ops {
		t := &Table{ID: f.id + "-" + op.String(), Title: fmt.Sprintf(f.title, op), Columns: f.cols}
		for s, sys := range f.systems {
			t.Rows = append(t.Rows, append([]string{sys.name}, f.cells(res[o][s])...))
		}
		if f.noteRatio == nil {
			t.Notes = []string{f.note}
		} else if num, den := f.noteRatio(res[o]); den > 0 {
			t.Notes = []string{fmt.Sprintf(f.note, ratio(num, den))}
		}
		t.Fprint(opts.out())
		tables[o] = t
	}
	return tables
}

// oneTable renders a figure of one point as one table: a row per op with
// a cell per system (Figure 14), or with labels a row per system
// (ablation-rpc).
func oneTable(opts Options, f figure) []*Table {
	res := sweep(opts, f)
	t := &Table{ID: f.id, Title: f.title, Columns: f.cols, Notes: []string{f.note}}
	if f.labels != nil {
		for s, label := range f.labels {
			t.Rows = append(t.Rows, append([]string{label}, f.cells(res[0][s])...))
		}
	} else {
		for o, op := range f.ops {
			rs := make([]microResult, len(f.systems))
			for s := range rs {
				rs[s] = res[o][s][0]
			}
			t.Rows = append(t.Rows, append([]string{op.String()}, f.cells(rs)...))
		}
	}
	t.Fprint(opts.out())
	return []*Table{t}
}

// each formats every result with cell.
func each(rs []microResult, cell func(microResult) string) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = cell(r)
	}
	return out
}

func throughputs(rs []microResult) []string {
	return each(rs, func(r microResult) string { return fmtOps(r.throughput) })
}

// RunFig11 reproduces the client-driven scaling comparison.
func RunFig11(opts Options) []*Table {
	clients := microClients(opts.Scale)
	last := len(clients) - 1
	return tablePerOp(opts, figure{
		id:      "fig11",
		title:   fmt.Sprintf("Client-driven scaling: %%s ops/s (512 vCPU cap, %d ops/client)", microOpsPerClient(opts.Scale)),
		systems: microSystems(opts.Seed),
		ops:     microOps(),
		clients: clients,
		vcpus:   []int{512},
		cols:    headings("system", "%d clients", clients),
		cells:   throughputs,
		note:    "largest size: λFS/HopsFS = %s (paper: read 28.91x, stat 8.22x, ls 20.53x, create 1.49x, mkdir ~1x)",
		noteRatio: func(rs [][]microResult) (float64, float64) {
			return rs[0][last].throughput, rs[1][last].throughput
		},
	})
}

// RunFig12 reproduces the resource scaling comparison.
func RunFig12(opts Options) []*Table {
	clients := scaled(opts.Scale, 256, 96, 48)
	vcpus := scaled(opts.Scale, []int{16, 32, 64, 128, 256, 512}, []int{16, 128, 512}, []int{16, 512})
	return tablePerOp(opts, figure{
		id:      "fig12",
		title:   fmt.Sprintf("Resource scaling: %%s ops/s (%d clients, %d ops/client)", clients, microOpsPerClient(opts.Scale)),
		systems: microSystems(opts.Seed),
		ops:     microOps(),
		clients: []int{clients},
		vcpus:   vcpus,
		cols:    headings("system", "%d vCPU", vcpus),
		cells:   throughputs,
		note:    "λFS growth 16→512 vCPU: %s (paper: read 34.6x, stat 34.8x, ls 72.08x)",
		noteRatio: func(rs [][]microResult) (float64, float64) {
			return rs[0][len(vcpus)-1].throughput, rs[0][0].throughput
		},
	})
}

// RunFig13 reproduces performance-per-cost vs client count for the read
// operations (λFS under the simplified pricing model vs HopsFS+Cache's
// serverful bill).
func RunFig13(opts Options) []*Table {
	clients := microClients(opts.Scale)
	return tablePerOp(opts, figure{
		id:      "fig13",
		title:   "Performance-per-cost (ops/s/$): %s",
		systems: []microSystem{lambdaMicro(opts.Seed, nil), hopsMicro(true)},
		ops:     []namespace.OpType{namespace.OpRead, namespace.OpLs, namespace.OpStat},
		clients: clients,
		vcpus:   []int{512},
		cols:    headings("system", "%d clients", clients),
		cells: func(rs []microResult) []string {
			return each(rs, func(r microResult) string { return fmtOps(metrics.PerfPerCost(r.throughput, r.costPerSec)) })
		},
		note: "paper: λFS higher for read and ls at every size; stat comparable-or-better; λFS dips at the final sizes as it saturates its 512 vCPU",
	})
}

// RunFig14 reproduces the auto-scaling ablation: full AS vs limited
// (≤3 instances per deployment) vs disabled (1 instance).
func RunFig14(opts Options) []*Table {
	// The ablation needs enough load that a single instance per deployment
	// saturates; smaller quick sizes would show no auto-scaling benefit for
	// reads.
	clients := scaled(opts.Scale, 1024, 512, 192)
	capped := func(max int) microSystem {
		return lambdaMicro(opts.Seed, func(cfg *lambdafs.Config) { cfg.MaxInstancesPerDeployment = max })
	}
	return oneTable(opts, figure{
		id:      "fig14",
		title:   fmt.Sprintf("Auto-scaling ablation on λFS (%d clients)", clients),
		systems: []microSystem{capped(0), capped(3), capped(1)},
		ops:     microOps(),
		clients: []int{clients},
		vcpus:   []int{512},
		cols:    []string{"op", "AS", "Limited AS", "No AS", "AS/No-AS"},
		cells: func(rs []microResult) []string {
			return append(throughputs(rs), ratio(rs[0].throughput, rs[2].throughput))
		},
		note: "paper: read 3.53-3.80x, stat 3.53-3.80x, ls 14.37x over disabled AS; writes mostly store-bound",
	})
}
