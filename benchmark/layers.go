package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lambdafs/internal/cache"
	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/rpc"
	"lambdafs/internal/sim"
	"lambdafs/internal/workload"
)

// This file holds the host-altitude rows of the per-layer ledger: each
// one times direct calls into a single layer's exported functions on a
// zero-latency configuration, so what is measured is the simulator's own
// CPU and allocation cost in that layer and nothing else. A layer whose
// row shrinks should move host.ops_per_cpu_s / host_allocs_per_op on the
// workload where that layer does most of the work (README, interaction
// table); none of these rows is gated.

const timeBatches = 5

// timeBatch runs fn for i = from..to-1 and returns host ns (process CPU
// time, as host.ops_per_cpu_s) and heap allocations per call.
func timeBatch(from, to int, fn func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := cpuTime()
	for i := from; i < to; i++ {
		fn(i)
	}
	elapsed := cpuTime() - start
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(to-from), float64(ms.Mallocs-mallocs) / float64(to-from)
}

// timeCalls runs fn for i = 0..n-1 in timeBatches equal batches and returns
// the median batch's ns and allocations per call: one batch the neighbours
// slowed down cannot move the row. A row that would run past a second
// stops after the batch that crossed it (it has then measured at least a
// second of calls).
func timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	per := max(n/timeBatches, 1)
	var nss, allocss []float64
	for b := 0; b < timeBatches && sum(nss)*float64(per) < 1e9; b++ {
		ns, allocs := timeBatch(b*per, (b+1)*per, fn)
		nss, allocss = append(nss, ns), append(allocss, allocs)
	}
	return median(nss), median(allocss)
}

func sum(vs []float64) (s float64) {
	for _, v := range vs {
		s += v
	}
	return s
}

// onSim runs fn as one registered goroutine of a fresh simulation clock,
// so per-call rows do not pay clock.Run's shuttle on every call.
func onSim(fn func(clk *clock.Sim)) {
	clk := clock.NewSim()
	defer clk.Close()
	clock.Run(clk, func() { fn(clk) })
}

func zeroStore() ndb.Config {
	cfg := ndb.DefaultConfig()
	cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
	return cfg
}

type stubInvoker struct{ resp *namespace.Response }

func (s stubInvoker) Invoke(int, any) (any, error) { return s.resp, nil }

type stubApp struct{}

func (stubApp) HandleInvoke(any) any { return nil }
func (stubApp) Shutdown(bool)        {}

// layerBench measures every direct-call row with n calls each (events
// for the scheduler row are 10n). It starts from a collected heap.
func layerBench(seed int64, n int) map[string]float64 {
	runtime.GC()
	out := map[string]float64{}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/c%07d", i)
	}

	// rpc: client → stub invoker (route, HTTP/TCP choice, wire-size model,
	// latency window, telemetry), no platform behind it.
	onSim(func(clk *clock.Sim) {
		cfg := rpc.DefaultConfig()
		cfg.TCPOneWay, cfg.Seed = 0, seed
		cl := rpc.NewVM(clk, cfg).NewClient("bench", partition.NewRing(16, 0), stubInvoker{&namespace.Response{}})
		out["rpc.host_ns_per_call"], out["rpc.host_allocs_per_call"] = timeCalls(n, func(i int) {
			_, _ = cl.Do(namespace.OpStat, "/bench/f0001", "") // the stub cannot fail
		})
	})

	// faas: gateway → admission → warm instance → app, no latencies.
	onSim(func(clk *clock.Sim) {
		cfg := faas.DefaultConfig()
		cfg.ColdStart, cfg.GatewayLatency = 0, 0
		p := faas.New(clk, cfg)
		p.Register("bench", func(*faas.Instance) faas.App { return stubApp{} },
			faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4})
		out["faas.host_ns_per_invoke_warm"], _ = timeCalls(n, func(int) {
			_, _ = p.Invoke(0, nil) // an open platform with free capacity admits
		})
		p.Close()
	})

	// core: Engine.Execute direct, wired as internal/bench's hotpath
	// cluster (one writer, four peers, shared store and coordinator).
	onSim(func(clk *clock.Sim) {
		db := ndb.New(clk, zeroStore())
		workload.PreloadNDB(db, []string{"/bench"}, []string{"/bench/f0001"})
		ccfg := coordinator.DefaultConfig()
		ccfg.HopLatency = 0
		zk := coordinator.NewZK(clk, ccfg)
		ring := partition.NewRing(1, 0)
		eng := core.NewEngine("nn-w", 0, clk, db, ring, zk, nil, core.DefaultEngineConfig())
		zk.Register(0, "nn-w", eng.HandleInvalidation)
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("nn-p%d", i)
			zk.Register(0, id, core.NewEngine(id, 0, clk, db, ring, zk, nil, core.DefaultEngineConfig()).HandleInvalidation)
		}
		stat := namespace.Request{Op: namespace.OpStat, Path: "/bench/f0001"}
		eng.Execute(stat) // fill the cache
		out["core.host_ns_per_stat_hit"], out["core.host_allocs_per_stat_hit"] = timeCalls(n, func(int) {
			eng.Execute(stat)
		})
		out["core.host_ns_per_create"], out["core.host_allocs_per_create"] = timeCalls(n/4, func(i int) {
			eng.Execute(namespace.Request{Op: namespace.OpCreate, Path: paths[i]})
		})
	})

	// cache: the trie/LRU structure alone.
	{
		root := namespace.NewRoot()
		dir := &namespace.INode{ID: 2, ParentID: root.ID, Name: "bench", IsDir: true}
		file := &namespace.INode{ID: 3, ParentID: 2, Name: "f", Owner: "hdfs", Group: "hdfs",
			Blocks: []namespace.Block{{ID: 3, Size: 1, Locations: []string{"dn1", "dn2", "dn3"}}}}
		chain := []*namespace.INode{root, dir, file}
		c := cache.New(0)
		c.PutChain("/bench/f", chain)
		out["cache.host_ns_per_lookup_hit"], out["cache.host_allocs_per_lookup_hit"] = timeCalls(n, func(int) {
			c.Lookup("/bench/f")
		})
		out["cache.host_ns_per_putchain"], _ = timeCalls(n, func(i int) { c.PutChain(paths[i], chain) })
		out["cache.host_ns_per_invalidate"], _ = timeCalls(n, func(i int) { c.Invalidate(paths[i]) })
	}

	// coordinator: one batched INV/ACK round to eight members.
	onSim(func(clk *clock.Sim) {
		cfg := coordinator.DefaultConfig()
		cfg.HopLatency = 0
		zk := coordinator.NewZK(clk, cfg)
		for i := 0; i < 8; i++ {
			zk.Register(0, fmt.Sprintf("nn-%d", i), func(coordinator.Invalidation) {})
		}
		invs := []coordinator.Invalidation{{Path: "/bench/f0001", Writer: "nn-0"}}
		out["coordinator.host_ns_per_inv_round_t8"], _ = timeCalls(n/4, func(int) {
			_ = zk.InvalidateBatch([]int{0}, invs) // live no-op members always ACK
		})
	})

	// ndb: depth-6 resolution, and a one-row write transaction without and
	// with the durability tier in alternating batches; the difference of a
	// pair of batches is the WAL append (encode, CRC, frame, media write).
	onSim(func(clk *clock.Sim) {
		db := ndb.New(clk, zeroStore())
		deep := "/a/b/c/d/e/f"
		var dirs []string
		for i := 2; i <= len(deep); i += 2 {
			dirs = append(dirs, deep[:i])
		}
		workload.PreloadNDB(db, dirs, []string{deep + "/file"})
		out["ndb.host_ns_per_resolve_d6"], out["ndb.host_allocs_per_resolve_d6"] = timeCalls(n, func(int) {
			_, _ = db.ResolvePath(deep + "/file") // preloaded above
		})
	})
	onSim(func(clk *clock.Sim) {
		dcfg := zeroStore()
		dcfg.Durable = ndb.NewDurable(clk, dcfg.DataNodes, lsm.Config{})
		writeTo := func(db *ndb.DB) func(int) {
			return func(i int) {
				tx := db.Begin("bench")
				_ = tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: paths[i][7:]})
				_ = tx.Commit() // a private store: nothing to conflict with
			}
		}
		plain, durable := writeTo(ndb.New(clk, zeroStore())), writeTo(ndb.New(clk, dcfg))
		per := max(n/4/timeBatches, 1)
		var txs, wals []float64
		for b := 0; b < timeBatches; b++ {
			p, _ := timeBatch(b*per, (b+1)*per, plain)
			d, _ := timeBatch(b*per, (b+1)*per, durable)
			txs, wals = append(txs, p), append(wals, d-p)
		}
		out["ndb.host_ns_per_write_tx"] = median(txs)
		out["ndb.host_ns_per_wal_append"] = max(median(wals), 0)
	})

	// lsm: host cost of the structure, and the virtual cost of scanning a
	// 1,000-row checkpoint under the default latency model (what recovery
	// pays per shard).
	onSim(func(clk *clock.Sim) {
		db := lsm.New(clk, lsm.Config{})
		val := make([]byte, 96)
		out["lsm.host_ns_per_put"], _ = timeCalls(n, func(i int) { db.Put(paths[i], val) })
		out["lsm.host_ns_per_get"], _ = timeCalls(n, func(i int) { db.Get(paths[i]) })

		ck := lsm.New(clk, lsm.DefaultConfig())
		for i := 0; i < 1000; i++ {
			ck.Put(paths[i%len(paths)]+fmt.Sprint(i), val)
		}
		ck.Flush() // a checkpoint store that has been written out
		t := clk.Now()
		ck.Scan("")
		out["lsm.virt_us_per_scan_1k"] = float64(clk.Since(t).Nanoseconds()) / 1e3
	})

	// namespace: the deep copy every cache hit and store read pays.
	{
		file := &namespace.INode{ID: 3, ParentID: 2, Name: "f0001", Owner: "hdfs", Group: "hdfs",
			Blocks: []namespace.Block{{ID: 3, Size: 1, Locations: []string{"dn1", "dn2", "dn3"}}}}
		var keep *namespace.INode
		out["namespace.host_ns_per_inode_clone"], out["namespace.host_allocs_per_inode_clone"] = timeCalls(n, func(int) {
			keep = file.Clone()
		})
		_ = keep
	}

	// clock: what one sleeper wake-up costs with 16 and 256 registered
	// sleepers on staggered deadlines, and what clock.Run's shuttle from an
	// unregistered goroutine costs (goid parsing, goroutine spawn).
	out["clock.host_ns_per_wake_g16"] = wakeBench(16, n)
	out["clock.host_ns_per_wake_g256"] = wakeBench(256, n)
	{
		clk := clock.NewSim()
		out["clock.host_ns_per_run_shuttle"], _ = timeCalls(n, func(int) { clock.Run(clk, func() {}) })
		clk.Close()
	}

	// sim: the second substrate's event loop, 2n events a round.
	{
		round, _ := timeCalls(timeBatches, func(int) {
			s := sim.New(2 * n)
			for i := 0; i < 2*n; i++ {
				s.After(time.Duration(i%1000)*time.Microsecond, func() {})
			}
			s.Run()
		})
		out["sim.host_ns_per_event"] = round / float64(2*n)
	}
	return out
}

// wakeBench: g registered goroutines each sleep on their own period until
// about wakes wake-ups have happened in total, a fifth of them in each of
// timeCalls' rounds; returns host ns per wake.
func wakeBench(g, wakes int) float64 {
	per := max(wakes/timeBatches/g, 1)
	round, _ := timeCalls(timeBatches, func(int) {
		clk := clock.NewSim()
		defer clk.Close()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			period := time.Duration(i+1) * time.Microsecond
			wg.Add(1)
			clock.Go(clk, func() {
				defer wg.Done()
				for k := 0; k < per; k++ {
					clk.Sleep(period)
				}
			})
		}
		wg.Wait()
	})
	return round / float64(g*per)
}

// p2HostRatio runs read_hot at an eighth of its size at GOMAXPROCS 2 and at
// 1, three pairs, and returns the median of host time at 2 over host time
// at 1 (single pairs read anything from 0.5 to 18). The harness pins
// GOMAXPROCS to 1 because this ratio is far from 1: the clock's monitor
// goroutine spins on a second P.
func p2HostRatio(seed int64, scale float64) (float64, error) {
	sp := specByName("read_hot", scale/8)
	host := func(procs int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := runEpisode(sp, seed, false, false)
		if err != nil {
			return 0, err
		}
		return e.m.host.Seconds(), nil
	}
	var ratios []float64
	for i := 0; i < 3; i++ {
		two, err := host(2)
		if err != nil {
			return 0, err
		}
		one, err := host(1)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, ratio(two, one))
	}
	return median(ratios), nil
}
