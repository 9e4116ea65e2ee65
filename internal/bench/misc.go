package bench

import (
	"fmt"
	"math/rand"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/indexfs"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
	"lambdafs/internal/workload"
)

// RunTab2 verifies the workload generator reproduces Table 2's mix.
func RunTab2(opts Options) []*Table {
	mix := workload.SpotifyMix()
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	const n = 500_000
	counts := map[namespace.OpType]int{}
	for i := 0; i < n; i++ {
		counts[mix.Sample(rng)]++
	}
	t := &Table{
		ID:      "tab2",
		Title:   "Spotify workload operation mix (sampled vs Table 2)",
		Columns: []string{"operation", "paper %", "sampled %"},
	}
	for _, w := range mix {
		t.Rows = append(t.Rows, []string{
			w.Op.String(),
			fmt.Sprintf("%.2f", w.Weight),
			fmt.Sprintf("%.2f", 100*float64(counts[w.Op])/n),
		})
	}
	t.Rows = append(t.Rows, []string{"total reads", "95.23", fmt.Sprintf("%.2f",
		100*float64(counts[namespace.OpRead]+counts[namespace.OpStat]+counts[namespace.OpLs])/n)})
	t.Fprint(opts.out())
	return []*Table{t}
}

// RunTab3 reproduces Table 3: end-to-end latency of subtree mv for
// growing directory sizes, λFS vs HopsFS.
func RunTab3(opts Options) []*Table {
	sizes := scaled(opts.Scale, []int{1 << 18, 1 << 19, 1 << 20}, []int{1 << 14, 1 << 15, 1 << 16}, []int{1 << 12, 1 << 13})
	t := &Table{
		ID:      "tab3",
		Title:   "Subtree mv latency by directory size",
		Columns: []string{"dir size", "HopsFS", "λFS", "λFS/HopsFS"},
	}
	for _, size := range sizes {
		dirs, files := workload.DeepNamespace("/mvroot", size)
		hops := timeOp(hopsMicro(false), dirs, files, namespace.OpMv, "/mvroot", "/moved")
		lam := timeOp(lambdaMicro(opts.Seed, nil), dirs, files, namespace.OpMv, "/mvroot", "/moved")
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size), fmtDur(hops), fmtDur(lam), ratio(float64(lam), float64(hops)),
		})
	}
	t.Notes = append(t.Notes,
		"paper (262k/524k/1.04M files): HopsFS 7.51s/14.18s/25.14s, λFS 6.46s/12.51s/25.22s — λFS slightly faster until the store dominates")
	t.Fprint(opts.out())
	return []*Table{t}
}

// RunFig16 reproduces the λIndexFS vs IndexFS tree-test comparison.
func RunFig16(opts Options) []*Table {
	sizes := scaled(opts.Scale, []int{2, 4, 8, 16, 32, 64, 128, 256}, []int{2, 16, 128}, []int{2, 16})
	perClient := scaled(opts.Scale, 10_000, 300, 200)
	fixedTotal := scaled(opts.Scale, 1_000_000, 16_000, 6_400)
	var tables []*Table
	for _, fixed := range []bool{false, true} {
		name := "variable-sized (per-client writes+reads)"
		id := "fig16-variable"
		if fixed {
			name = fmt.Sprintf("fixed-sized (%d writes + %d reads total)", fixedTotal, fixedTotal)
			id = "fig16-fixed"
		}
		t := &Table{
			ID:      id,
			Title:   "λIndexFS vs IndexFS tree-test: " + name,
			Columns: headings("system/metric", "%d clients", sizes),
		}
		// A row per system × metric: IndexFS's three, then λIndexFS's.
		for _, sys := range []string{"IndexFS", "λIndexFS"} {
			for _, metric := range []string{"write", "read", "agg"} {
				t.Rows = append(t.Rows, []string{sys + " " + metric})
			}
		}
		for _, clients := range sizes {
			writes, reads := perClient, perClient
			if fixed {
				writes = fixedTotal / clients
				reads = fixedTotal / clients
			}
			for i, lambda := range []bool{false, true} {
				r := runTreeTest(opts, lambda, clients, writes, reads)
				for m, v := range []float64{r.WriteThroughput(), r.ReadThroughput(), r.AggThroughput()} {
					t.Rows[3*i+m] = append(t.Rows[3*i+m], fmtOps(v))
				}
			}
		}
		t.Notes = append(t.Notes,
			"paper: λIndexFS reads consistently higher (function-side cache); writes higher via auto-scaling but dip past 2^6 clients (64-vCPU OpenWhisk limit)")
		t.Fprint(opts.out())
		tables = append(tables, t)
	}
	return tables
}

// indexClient is an IndexFS or a λIndexFS client.
type indexClient interface {
	Mknod(path string) error
	Getattr(path string) (indexfs.Attr, bool, error)
}

// treeFS serves tree-test from an indexClient.
type treeFS struct{ c indexClient }

func (f treeFS) Mknod(p string) error { return f.c.Mknod(p) }
func (f treeFS) Getattr(p string) (bool, error) {
	_, ok, err := f.c.Getattr(p)
	return ok, err
}

// runTreeTest runs tree-test on a fresh clock against IndexFS or, with
// lambda, against λIndexFS on the paper's 64-vCPU OpenWhisk cluster (§5.7).
func runTreeTest(opts Options, lambda bool, clients, writes, reads int) workload.TreeTestResult {
	clk := clock.NewSim()
	defer clk.Close()
	var client func(id string) indexClient
	if lambda {
		fCfg := faas.DefaultConfig()
		fCfg.TotalVCPU = 64
		var platform *faas.Platform
		var sys *indexfs.LambdaSystem
		clock.Run(clk, func() {
			platform = faas.New(clk, fCfg)
			sys = indexfs.NewLambda(clk, platform, indexfs.DefaultLambdaConfig())
		})
		defer platform.Close()
		rCfg := rpc.DefaultConfig()
		rCfg.Seed = opts.Seed
		vm := rpc.NewVM(clk, rCfg)
		client = func(id string) indexClient { return sys.NewClient(vm, id) }
	} else {
		cl := indexfs.New(clk, indexfs.DefaultConfig())
		client = func(id string) indexClient { return cl.NewClient(id) }
	}
	var res workload.TreeTestResult
	clock.Run(clk, func() {
		res = workload.RunTreeTest(clk, workload.TreeTestConfig{
			Clients: clients, WritesPerClient: writes, ReadsPerClient: reads, Seed: opts.Seed,
		}, func(i int) workload.TreeTestFS {
			return treeFS{client(fmt.Sprintf("c%d", i))}
		})
	})
	return res
}

// RunAblationRPC sweeps the HTTP-TCP replacement probability, including
// HTTP-only operation (design ablation of §3.2/§3.4).
func RunAblationRPC(opts Options) []*Table {
	clients := scaled(opts.Scale, 128, 128, 64)
	all := []float64{0, 0.005, 0.05, 1.0}
	systems, labels := replaceProbSystems(opts.Seed, scaled(opts.Scale, all, all, []float64{0.005, 1.0}))
	return oneTable(opts, figure{
		id:      "ablation-rpc",
		title:   fmt.Sprintf("HTTP-TCP replacement probability sweep (read, %d clients)", clients),
		systems: systems,
		labels:  labels,
		ops:     []namespace.OpType{namespace.OpRead},
		clients: []int{clients},
		vcpus:   []int{512},
		cols:    []string{"replace prob", "ops/s", "mean lat"},
		cells: func(rs []microResult) []string {
			return []string{fmtOps(rs[0].throughput), fmtDur(rs[0].meanLat)}
		},
		note: "§3.4: ≤1% performs best — enough HTTP for scaling signals, TCP latency for the rest; HTTP-only pays the gateway on every op",
	})
}

// replaceProbSystems is λFS at each HTTP-TCP replacement probability, with
// the row label ablation-rpc prints for it.
func replaceProbSystems(seed int64, probs []float64) (systems []microSystem, labels []string) {
	for _, prob := range probs {
		systems = append(systems, lambdaMicro(seed, func(cfg *lambdafs.Config) { cfg.RPC.HTTPReplaceProb = prob }))
		label := fmt.Sprintf("%.1f%%", prob*100)
		if prob == 1.0 {
			label = "100% (HTTP only)"
		}
		labels = append(labels, label)
	}
	return systems, labels
}

// RunAblationBatch sweeps the subtree sub-operation batch size with and
// without serverless offloading (Appendix D).
func RunAblationBatch(opts Options) []*Table {
	size := scaled(opts.Scale, 1<<17, 1<<14, 1<<12)
	t := &Table{
		ID:      "ablation-batch",
		Title:   fmt.Sprintf("Subtree delete latency (%d files) by batch size and offloading", size),
		Columns: []string{"batch", "offload", "latency"},
	}
	dirs, files := workload.DeepNamespace("/victim", size)
	for _, batch := range []int{64, 512, 4096} {
		for _, offload := range []bool{true, false} {
			sys := lambdaMicro(opts.Seed, func(cfg *lambdafs.Config) {
				cfg.Engine.SubtreeBatch = batch
				if !offload {
					cfg.OffloadLatency = -1
				}
			})
			lat := timeOp(sys, dirs, files, namespace.OpDelete, "/victim", "")
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", batch), fmt.Sprintf("%v", offload), fmtDur(lat),
			})
		}
	}
	t.Notes = append(t.Notes, "Appendix D: larger batches amortize offload hops; default 512")
	t.Fprint(opts.out())
	return []*Table{t}
}
