// Benchmarks regenerating the paper's evaluation artifacts: one
// sub-benchmark per experiment of internal/bench, each running it at tiny
// scale per iteration; `go run ./cmd/lambdafs-bench` runs the quick and
// full scales with complete table output.
//
// All numbers are virtual-time measurements from the simulated substrates
// (see DESIGN.md); the reproduction target is the paper's shapes, not its
// absolute testbed numbers.
package lambdafs_test

import (
	"testing"
	"time"

	"lambdafs"
	"lambdafs/internal/bench"
	"lambdafs/internal/namespace"
)

// BenchmarkExperiments runs every registered experiment at tiny scale and
// fails one that renders no rows.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.Name, func(b *testing.B) {
			if e.Name == "fig12" {
				b.Skip("tiny fig12 never finishes: its 16-vCPU, 48-client point livelocks on cold-start evictions (ROADMAP item 3(c))")
			}
			for i := 0; i < b.N; i++ {
				tables := e.Run(bench.Options{Scale: bench.Tiny, Seed: 1})
				if len(tables) == 0 || len(tables[0].Rows) == 0 {
					b.Fatal("experiment produced no rows")
				}
			}
		})
	}
}

// BenchmarkClientOpLatency measures the end-to-end virtual latency of
// cached reads through the public API (a sanity probe on the TCP fast
// path: ~1 ms per the paper's §3.2).
func BenchmarkClientOpLatency(b *testing.B) {
	cfg := lambdafs.DefaultConfig()
	cfg.Deployments = 4
	cluster, err := lambdafs.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cl := cluster.NewClient("bench")
	if err := cl.MkdirAll("/bench"); err != nil {
		b.Fatal(err)
	}
	if err := cl.Create("/bench/f"); err != nil {
		b.Fatal(err)
	}
	// Warm the cache and the TCP connection.
	for i := 0; i < 8; i++ {
		if _, err := cl.Stat("/bench/f"); err != nil {
			b.Fatal(err)
		}
	}
	start := cluster.Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Stat("/bench/f"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	virtual := cluster.Clock().Since(start)
	b.ReportMetric(float64(virtual.Nanoseconds())/float64(b.N), "virtual-ns/op")
	if perOp := virtual / time.Duration(b.N); perOp > 20*time.Millisecond {
		b.Fatalf("cached stat took %v virtual per op", perOp)
	}
	_ = namespace.OpStat
}
