// Command lambdafs-bench regenerates the paper's evaluation: every table
// and figure of §5 has a named experiment that wires the systems under
// test onto the discrete-event simulation clock and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	lambdafs-bench list                 # show available experiments
//	lambdafs-bench all                  # run everything (quick scale)
//	lambdafs-bench fig8a fig11          # run selected experiments
//	lambdafs-bench -full fig8a          # paper-scale counts (slow)
//	lambdafs-bench -seed 42 fig16
//	lambdafs-bench -out DIR trace chaos  # also write CSVs, JSONL and telemetry artifacts
//	lambdafs-bench -baseline hotpath          # write BENCH_hotpath.json (any committed BENCH_<name>.json's name)
//	lambdafs-bench -check BENCH_hotpath.json  # re-measure, fail on any differing leaf (gate picked by the file's schema)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"lambdafs/internal/bench"
)

func main() {
	// The simulation is allocation-heavy (per-op requests, responses,
	// spans and parked waiters; rows themselves are shared, not cloned);
	// a relaxed GC target trades memory for wall time.
	debug.SetGCPercent(400)
	full := flag.Bool("full", false, "run paper-scale op counts and durations (slow)")
	seed := flag.Int64("seed", 1, "workload randomness seed")
	outDir := flag.String("out", "", "write every artifact into this directory: each table as <table>.csv, trace's trace/event JSONL, the telemetry planes (Prometheus text dump, scraped snapshot JSON) and flight-recorder JSONL, slo's coverage and alert logs")
	chaosSeed := flag.Int64("chaosseed", 0, "replay a single chaos episode with this seed (0 = full chaos experiment; use the seed a failing run printed)")
	pprofDir := flag.String("pprof", "", "profile each experiment's host cost and write <experiment>.{cpu,heap}.pprof from one run and <experiment>.rerun.{block,mutex}.pprof from a second into this directory")
	baseline := flag.String("baseline", "", "measure the named baseline — the <name> of a committed BENCH_<name>.json; an unknown name lists the known ones — and write BENCH_<name>.json into the current directory, then exit")
	check := flag.String("check", "", "re-measure the experiment behind this baseline file (routed by its schema field, at its recorded mode and seed) and exit nonzero on any leaf that differs (hotpath's allocs_per_op: beyond baseline × 1.25 + 8)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-full] [-seed N] [-out DIR] [-chaosseed N] [-pprof DIR] [-baseline NAME] [-check FILE] list | all | <experiment>...\n\n", os.Args[0])
		fmt.Fprintln(os.Stderr, "experiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.Name, e.Brief)
		}
	}
	flag.Parse()
	args := flag.Args()
	scale := bench.Quick
	if *full {
		scale = bench.Full
	}

	if *baseline != "" || *check != "" {
		opts := bench.Options{Scale: scale, Seed: *seed}
		if *baseline != "" {
			path, err := bench.WriteBaseline(*baseline, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "baseline:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s baseline to %s\n", *baseline, path)
		}
		if *check != "" {
			gate, err := bench.CheckBaseline(*check, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%s baseline %s holds\n", gate, *check)
		}
		return
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if args[0] == "list" {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.Name, e.Brief)
		}
		return
	}

	var selected []bench.Experiment
	if args[0] == "all" {
		selected = bench.All()
	} else {
		for _, name := range args {
			e, ok := bench.Find(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try 'list')\n", name)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := bench.Options{Scale: scale, Seed: *seed, Out: os.Stdout, ArtifactDir: *outDir,
		ChaosSeed: *chaosSeed}
	mode := "quick"
	if *full {
		mode = "full (paper-scale)"
	}
	fmt.Printf("λFS evaluation reproduction — %d experiment(s), %s mode, seed %d\n\n",
		len(selected), mode, *seed)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "out dir:", err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		peak := peakRSS()
		elapsed := wallTimer()
		fmt.Printf("--- %s: %s\n", e.Name, e.Brief)
		var tables []*bench.Table
		if *pprofDir != "" {
			profDur, err := bench.Profile(*pprofDir, e.Name, func(rerun bool) {
				if !rerun {
					tables = e.Run(opts)
					return
				}
				quiet := opts
				quiet.Out, quiet.ArtifactDir = io.Discard, ""
				e.Run(quiet)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
				os.Exit(1)
			}
			fmt.Printf("--- %s profiles written to %s (%v CPU-profiled run, then a contention-profiled rerun)\n",
				e.Name, *pprofDir, profDur.Round(time.Millisecond))
		} else {
			tables = e.Run(opts)
		}
		if *outDir != "" {
			for _, tb := range tables {
				if err := tb.SaveCSV(*outDir); err != nil {
					fmt.Fprintln(os.Stderr, "csv export:", err)
				}
			}
		}
		fmt.Printf("--- %s done in %v (wall)%s\n\n", e.Name, elapsed().Round(time.Millisecond), peak())
	}
}

// peakRSS starts measuring one experiment's resident-set peak and returns
// what reports it on the "done in" line. Where the kernel lets a process
// reset its high-water mark (5 written to /proc/self/clear_refs), the free
// heap the previous experiment left is first returned to the OS, so the
// number is this experiment's own; elsewhere it is the process's mark so far
// and says so. Without /proc/self/status it reports nothing.
func peakRSS() func() string {
	debug.FreeOSMemory()
	reset := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	return func() string {
		kb, ok := vmHWMKiB()
		switch {
		case !ok:
			return ""
		case reset:
			return fmt.Sprintf(", peak RSS %d MiB", kb>>10)
		default:
			return fmt.Sprintf(", peak RSS %d MiB (process high-water mark)", kb>>10)
		}
	}
}

// vmHWMKiB reads the process's resident-set high-water mark (VmHWM).
func vmHWMKiB() (int64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// wallTimer measures host wall-clock runtime for the "done in … (wall)"
// progress line. The experiments run on virtual time; this line answers the
// different question of how long the host took to simulate them, which is
// inherently a wall-clock measurement and the one sanctioned exception.
func wallTimer() func() time.Duration {
	start := time.Now() //vet:allow virtualtime reports host runtime of the simulation run, not simulated latency
	return func() time.Duration {
		return time.Since(start) //vet:allow virtualtime host-runtime measurement is genuinely wall-clock
	}
}
