// Command benchmark is the repository's benchmark: four workloads driven
// through the whole λFS request path (client → rpc → faas → core/cache →
// coordinator → ndb → WAL/lsm) on the discrete-event clock, reported at
// two altitudes — virtual (what the modelled system costs) and host (what
// the simulator costs us) — with a per-layer ledger from a second, traced
// run. See README.md for why each workload and metric exists.
//
//	benchmark --workload read_hot --seed 1 --seconds 12 --trace 0
//	benchmark --workload read_hot --seed 1 --seconds 12 --trace 1
//	benchmark -compare parent.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// An end-to-end run measures a fixed number of fresh clusters: the
// workload's count (spec.clusters) at runSeconds, in proportion at another
// --seconds, never fewer than minEpisodes. Every metric is computed per
// cluster and reported as the median over clusters, so one odd cluster
// cannot move a result and setup_s is a median of several set-ups.
const (
	runSeconds  = 12 // BENCHMARK.json's run_seconds
	minEpisodes = 3
)

// run is one benchmark result, as printed on the last line of stdout
// (without the bookkeeping fields) and as stored in result files.
type run struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     int               `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: read_hot, read_cold, write_contend or spotify_burst")
		seed         = flag.Int64("seed", 1, "seed for the generated inputs and the rpc jitter")
		seconds      = flag.Int("seconds", runSeconds, "nominal host seconds of measured phase; sets how many clusters a run measures")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer ledger from a traced run")
		outDir       = flag.String("out", ".bench_build/out", "directory for <workload>.trace.jsonl and <workload>.cpu.pprof")
		record       = flag.String("record", "", "append this run to a JSON result file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: benchmark -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sp := specByName(*workloadName, 1)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}

	// Fixed harness settings, whatever the environment says. One P: at
	// GOMAXPROCS=2 the clock's spinning monitor makes the same run ~2x
	// slower and ±25% noisy (clock.p2_host_ratio keeps measuring that).
	// The simulated clients are virtual-time actors inside this process,
	// so the load generator is this one OS thread of work too.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	fmt.Printf("settings: GOMAXPROCS=1 GCPercent=400 go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), sp.name, *seed, *seconds, *traceMode)
	fmt.Printf("deployment: lambdafs.DefaultConfig (16 deployments, 6.25 vCPU/30 GB, concurrency 4, ZK hop 500us) + ndb durability tier (fsync 100us, checkpoint every 4096 commits); cache budget %d B; %d clients\n",
		sp.cacheBudget, sp.clients)

	var res *run
	var err error
	if *traceMode == 0 {
		res, err = runEndToEnd(sp, *seed, *seconds)
	} else {
		res, err = runPerLayer(sp, *seed, *outDir)
	}
	if err != nil {
		fatal(err)
	}
	res.Workload, res.Seed, res.Trace = sp.name, *seed, *traceMode
	if *record != "" {
		if err := appendRun(*record, res); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(run{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runEndToEnd measures the end-to-end metrics on untraced clusters, one
// after the other.
func runEndToEnd(sp *spec, seed int64, seconds int) (*run, error) {
	n := max((sp.clusters*seconds+runSeconds/2)/runSeconds, minEpisodes)
	var eps []*episode
	var measured time.Duration
	samples := 0
	for i := 0; i < n; i++ {
		e, err := runEpisode(sp, seed+int64(i)*1009, false, false)
		if err != nil {
			return nil, err
		}
		eps = append(eps, e)
		// Collect the finished cluster now: the process holds one cluster's
		// heap at a time, however many a run measures.
		runtime.GC()
		measured += e.m.host
		samples += e.m.ops
	}
	res := newRun(endToEnd, endToEndValues(eps))
	for _, e := range eps {
		res.Attempted += e.attempted
		res.Failed += e.failed
		reportFaults(e)
	}
	fmt.Printf("measured: %d clusters, %d latency samples, %.1fs host, %.0f ops per CPU second (median over clusters; not gated, README \"Demoted\")\n",
		len(eps), samples, measured.Seconds(), overEpisodes(eps, func(p *phase) float64 { return ratio(float64(p.ops), p.cpu.Seconds()) }))
	return res, nil
}

// runPerLayer builds the ledger: the direct-call rows, one untraced
// cluster with the gauge probe on (counts are registry deltas over its
// measured phase), and one traced cluster of the same workload and seed
// (virtual self times).
func runPerLayer(sp *spec, seed int64, outDir string) (*run, error) {
	// The direct-call rows first, on a heap no cluster has used yet.
	bench := layerBench(seed, 100000)
	plain, err := runEpisode(sp, seed, false, true)
	if err != nil {
		return nil, err
	}
	var traced *episode
	err = cpuProfile(outDir, sp.name, func() (err error) {
		traced, err = runEpisode(sp, seed, true, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := traced.writeTrace(outDir); err != nil {
		return nil, err
	}
	if bench["clock.p2_host_ratio"], err = p2HostRatio(seed, 1); err != nil {
		return nil, err
	}
	res := newRun(perLayer, layerValues(plain, traced, bench))
	res.Attempted, res.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	reportFaults(plain)
	reportFaults(traced)
	return res, nil
}

// newRun prints every metric of defs by name with its unit and packs them
// into a result. A missing or non-finite value is a bug in the harness.
func newRun(defs []metricDef, values map[string]float64) *run {
	res := &run{Correct: true, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s: no finite value (%v)", d.Name, v))
		}
		fmt.Printf("%-42s %16.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res
}

// reportFaults lists every operation whose result contradicted the model.
func reportFaults(e *episode) {
	for _, f := range e.faults {
		fmt.Printf("failed op: %s\n", f)
	}
}

func readRuns(path string) ([]run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []run
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

func appendRun(path string, r *run) error {
	runs, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(runs, *r), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
