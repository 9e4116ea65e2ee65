// λIndexFS port demo (§5.7, Figure 7): the same tree-test workload runs
// against vanilla IndexFS (fixed servers over LevelDB-like LSM partitions)
// and against λIndexFS (serverless caching functions in front of the same
// LSM partitions, reusing λFS's client library and FaaS platform),
// showing the read-side win from function-memory caching.
package main

import (
	"fmt"
	"log"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/indexfs"
	"lambdafs/internal/rpc"
	"lambdafs/internal/workload"
)

// λIndexFS's advantage is elasticity: at low client counts the two are
// comparable (λIndexFS even pays a small latency premium for the TCP-RPC
// hop), but once the fixed IndexFS servers saturate, λIndexFS keeps
// scaling out — so the demo drives enough clients to reach saturation.
const (
	clients = 192
	writes  = 600
	reads   = 600
)

func main() {
	fmt.Printf("tree-test: %d clients × (%d mknods + %d getattrs)\n\n", clients, writes, reads)

	// --- vanilla IndexFS ---
	clk1 := clock.NewSim()
	cluster := indexfs.New(clk1)
	var vres workload.TreeTestResult
	clock.Run(clk1, func() {
		vres = workload.RunTreeTest(clk1, workload.TreeTestConfig{
			Clients: clients, WritesPerClient: writes, ReadsPerClient: reads, Seed: 1,
		}, func(i int) workload.TreeTestFS {
			return vanillaFS{cluster.NewClient(fmt.Sprintf("c%d", i))}
		})
	})
	clk1.Close()
	report("IndexFS ", vres)
	st := cluster.LSMStats()
	fmt.Printf("  LSM: %d puts, %d gets, %d flushes, %d compactions\n\n",
		st.Puts, st.Gets, st.Flushes, st.Compactions)

	// --- λIndexFS ---
	clk2 := clock.NewSim()
	defer clk2.Close()
	fCfg := faas.DefaultConfig()
	fCfg.TotalVCPU = 64 // the paper's OpenWhisk cluster for §5.7
	fCfg.GatewayLatency = 4 * time.Millisecond
	var platform *faas.Platform
	var sys *indexfs.LambdaSystem
	clock.Run(clk2, func() {
		platform = faas.New(clk2, fCfg)
		sys = indexfs.NewLambda(clk2, platform)
	})
	defer platform.Close()
	vm := rpc.NewVM(clk2, rpc.DefaultConfig())
	var lres workload.TreeTestResult
	clock.Run(clk2, func() {
		lres = workload.RunTreeTest(clk2, workload.TreeTestConfig{
			Clients: clients, WritesPerClient: writes, ReadsPerClient: reads, Seed: 1,
		}, func(i int) workload.TreeTestFS {
			return lambdaFS{sys.NewClient(vm, fmt.Sprintf("c%d", i))}
		})
	})
	report("λIndexFS", lres)
	fmt.Printf("  serverless functions live: %d\n\n", platform.ActiveInstances())

	if lres.ReadThroughput() <= vres.ReadThroughput() {
		log.Fatal("expected λIndexFS's cached reads to beat vanilla IndexFS")
	}
	fmt.Printf("λIndexFS read speedup over IndexFS: %.2fx (function-memory cache, §5.7)\n",
		lres.ReadThroughput()/vres.ReadThroughput())
}

func report(name string, r workload.TreeTestResult) {
	fmt.Printf("%s: write %8.0f ops/s | read %8.0f ops/s | agg %8.0f ops/s\n",
		name, r.WriteThroughput(), r.ReadThroughput(), r.AggThroughput())
}

type vanillaFS struct{ c *indexfs.Client }

func (f vanillaFS) Mknod(p string) error { return f.c.Mknod(p) }
func (f vanillaFS) Getattr(p string) (bool, error) {
	_, ok, err := f.c.Getattr(p)
	return ok, err
}

type lambdaFS struct{ c *indexfs.LambdaClient }

func (f lambdaFS) Mknod(p string) error { return f.c.Mknod(p) }
func (f lambdaFS) Getattr(p string) (bool, error) {
	_, ok, err := f.c.Getattr(p)
	return ok, err
}
