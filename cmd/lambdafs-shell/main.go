// Command lambdafs-shell boots an in-process λFS cluster and executes
// file system commands against it — the equivalent of the artifact's
// terminal-based benchmarking interface for poking at a live deployment.
//
// Usage:
//
//	lambdafs-shell -c "mkdir /a; create /a/f; ls /a; stat /a/f; stats"
//	echo "mkdir /x\ncreate /x/y\nls /x" | lambdafs-shell
//
// Commands: mkdir <path> | create <path> | stat <path> | read <path> |
// ls <path> | mv <src> <dst> | rm <path> | kill <deployment> | stats |
// top [seconds] [clients] | slo | watch [seconds] [clients] | metrics |
// trace [n] | prof | help
//
// Chaos and crash-restart episodes run on clusters of their own, not the
// session's: see `lambdafs-bench chaos` and `lambdafs-bench restart`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"lambdafs"
	"lambdafs/internal/bench"
	"lambdafs/internal/clock"
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

func main() {
	script := flag.String("c", "", "semicolon-separated commands to run (default: read stdin)")
	deployments := flag.Int("deployments", 8, "number of NameNode deployments")
	httpAddr := flag.String("http", "", "serve live telemetry (/metrics Prometheus text, /metrics.json) on this address")
	flightPath := flag.String("flight", "lambdafs-flight.jsonl", "where the flight recorder dumps its window on interrupt")
	flag.Parse()

	cfg := lambdafs.DefaultConfig()
	cfg.Deployments = *deployments
	cfg.EnableTracing = true // the shell is a diagnostics tool: trace everything
	cluster, err := lambdafs.NewCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "start cluster:", err)
		os.Exit(1)
	}
	defer cluster.Close()
	client := cluster.NewClient("shell")
	fmt.Printf("λFS cluster up: %d deployments, NDB store, ZooKeeper coordinator\n", *deployments)

	// The flight recorder rides along for the whole session: every trace
	// event and every top scrape lands in its bounded rings, and an
	// interrupt dumps the freshest window for post-mortem inspection.
	recorder := telemetry.NewFlightRecorder(0, 0)
	cluster.Tracer().SetEventSink(recorder.RecordEvent)
	scraper := telemetry.NewScraper(cluster.Clock(), cluster.Telemetry(), time.Second)
	scraper.OnSnapshot(recorder.RecordSnapshot)
	// The SLO engine rides along for the whole session: the one rule pack
	// evaluates on every scrape tick, firing/resolved
	// transitions land in the flight recorder next to the trace events, and
	// the slo / watch commands render its live state.
	sloEng := slo.New(slo.Config{Registry: cluster.Telemetry()})
	sloEng.AddRules(slo.Rules())
	sloEng.SetEventSink(recorder.RecordEvent)
	scraper.OnSnapshot(sloEng.Observe)
	// Registered after Observe: each sample sees the states the engine
	// just evaluated at that tick (hooks run in registration order).
	sloLog := &sloHistory{}
	scraper.OnSnapshot(func(s telemetry.Snapshot) {
		sloLog.record(s.VirtualUS(), sloEng.Status())
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		cluster.Run(func() { scraper.ScrapeNow() }) // final registry state
		if f, err := os.Create(*flightPath); err == nil {
			if err := recorder.DumpJSONL(f); err == nil {
				fmt.Fprintf(os.Stderr, "\nflight recorder dumped to %s\n", *flightPath)
			}
			f.Close()
		}
		os.Exit(130)
	}()

	if *httpAddr != "" {
		// Host-side observation surface; lives in wall-clock land by design.
		go func() {
			if err := http.ListenAndServe(*httpAddr, telemetry.Handler(cluster.Telemetry())); err != nil {
				fmt.Fprintln(os.Stderr, "http:", err)
			}
		}()
		fmt.Printf("telemetry: http://%s/metrics\n", *httpAddr)
	}

	run := func(line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		need := func(n int) bool {
			if len(args) < n {
				fmt.Printf("%s: expected %d argument(s)\n", cmd, n)
				return false
			}
			return true
		}
		switch cmd {
		case "mkdir":
			if need(1) {
				report(cmd, args[0], client.MkdirAll(args[0]))
			}
		case "create":
			if need(1) {
				report(cmd, args[0], client.Create(args[0]))
			}
		case "stat":
			if !need(1) {
				return
			}
			info, err := client.Stat(args[0])
			if err != nil {
				report(cmd, args[0], err)
				return
			}
			kind := "file"
			if info.IsDir {
				kind = "dir"
			}
			fmt.Printf("%s: %s id=%d perm=%o size=%d\n", args[0], kind, info.ID, info.Perm, info.Size)
		case "read":
			if !need(1) {
				return
			}
			info, blocks, err := client.Open(args[0])
			if err != nil {
				report(cmd, args[0], err)
				return
			}
			fmt.Printf("%s: id=%d size=%d blocks=%d\n", args[0], info.ID, info.Size, len(blocks))
			for _, b := range blocks {
				fmt.Printf("  block %d size=%d replicas=%v\n", b.ID, b.Size, b.Locations)
			}
		case "ls":
			if !need(1) {
				return
			}
			entries, err := client.List(args[0])
			if err != nil {
				report(cmd, args[0], err)
				return
			}
			for _, e := range entries {
				kind := "-"
				if e.IsDir {
					kind = "d"
				}
				fmt.Printf("%s %8d  %s\n", kind, e.Size, e.Name)
			}
			fmt.Printf("%d entries\n", len(entries))
		case "mv":
			if need(2) {
				report(cmd, args[0]+" -> "+args[1], client.Rename(args[0], args[1]))
			}
		case "rm":
			if need(1) {
				report(cmd, args[0], client.Remove(args[0]))
			}
		case "kill":
			if !need(1) {
				return
			}
			dep, err := strconv.Atoi(args[0])
			if err != nil {
				fmt.Println("kill: deployment must be a number")
				return
			}
			if cluster.Platform().KillOneInstance(dep) {
				fmt.Printf("killed one NameNode of deployment %d\n", dep)
			} else {
				fmt.Printf("no live NameNode in deployment %d\n", dep)
			}
		case "trace":
			n := 1
			if len(args) > 0 {
				if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
					n = v
				}
			}
			printTraces(cluster.Tracer(), n)
		case "prof":
			// prof: critical-path and resource attribution over every trace
			// recorded so far in the session.
			traces := cluster.Tracer().Traces()
			if len(traces) == 0 {
				fmt.Println("prof: no traces recorded yet")
				return
			}
			bench.CriticalPathTable(trace.Aggregate(traces)).Fprint(os.Stdout)
		case "top":
			// top [seconds] [clients]: drive a short mixed workload and
			// render the telemetry plane's key series once per virtual
			// second, top(1)-style.
			seconds, clients := 5, 8
			if len(args) > 0 {
				if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
					seconds = v
				}
			}
			if len(args) > 1 {
				if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
					clients = v
				}
			}
			runTop(cluster, scraper, seconds, clients)
		case "slo":
			// slo: scrape once and render the rule pack's live state plus
			// the session's recent alert transitions.
			cluster.Run(func() { scraper.ScrapeNow() })
			printSLO(sloEng)
		case "watch":
			// watch [seconds] [clients]: drive a short mixed workload and
			// render the SLO rule states at every virtual-second scrape —
			// the alerting-plane sibling of top.
			seconds, clients := 5, 8
			if len(args) > 0 {
				if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
					seconds = v
				}
			}
			if len(args) > 1 {
				if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
					clients = v
				}
			}
			runWatch(cluster, scraper, sloEng, sloLog, seconds, clients)
		case "metrics":
			cluster.Run(func() { scraper.ScrapeNow() })
			if err := telemetry.WritePrometheus(os.Stdout, cluster.Telemetry()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		case "stats":
			s := cluster.Stats()
			fmt.Printf("NameNodes=%d vCPU=%.1f coldStarts=%d invocations=%d\n",
				s.ActiveNameNodes, s.VCPUInUse, s.ColdStarts, s.Invocations)
			fmt.Printf("cache hits=%d misses=%d | store reads=%d writes=%d commits=%d\n",
				s.CacheHits, s.CacheMisses, s.Store.Reads, s.Store.Writes, s.Store.Commits)
			fmt.Printf("cost: pay-per-use $%.6f, provisioned $%.6f\n", s.PayPerUseUSD, s.ProvisionedUSD)
		case "help":
			fmt.Println("commands: mkdir create stat read ls mv rm kill stats top slo watch metrics trace prof help")
		default:
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
	}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			run(line)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		run(sc.Text())
	}
}

// runTop drives a short mixed workload against the live cluster while the
// scraper samples the registry once per virtual second, then renders the
// key series. Gauges show the instant value at each scrape; counters show
// the per-second delta.
func runTop(cluster *lambdafs.Cluster, scraper *telemetry.Scraper, seconds, clients int) {
	before := len(scraper.Snapshots())
	driveMixed(cluster, scraper, seconds, clients)
	snaps := scraper.Snapshots()[before:]
	if len(snaps) < 2 {
		fmt.Println("top: no samples collected")
		return
	}
	rows := snaps[1:] // row 0 is the baseline
	if len(rows) > seconds {
		rows = rows[:seconds]
	}
	fmt.Printf("%8s %5s %5s %6s %8s %8s %9s %12s\n",
		"t", "NNs", "warm", "util%", "inv/s", "hits/s", "commit/s", "cost$")
	prev := snaps[0]
	for _, s := range rows {
		delta := func(key string) float64 { return s.Values[key] - prev.Values[key] }
		fmt.Printf("%8s %5.0f %5.0f %5.1f%% %8.0f %8.0f %9.0f %12.6f\n",
			fmt.Sprintf("%ds", s.VirtualUS()/1e6),
			s.Values["lambdafs_faas_active_instances"],
			s.Values["lambdafs_faas_warm_instances"],
			100*s.Values["lambdafs_faas_pool_utilization"],
			delta("lambdafs_faas_invocations_total"),
			delta("lambdafs_core_cache_hits_total"),
			delta("lambdafs_ndb_tx_commits_total"),
			s.Values["lambdafs_cost_payperuse_usd"])
		prev = s
	}
}

// driveMixed runs the top/watch mixed workload against the live cluster
// for the given virtual duration while the scraper samples the registry
// once per virtual second. A baseline scrape precedes the workload so
// the first sample after it is a true per-second delta.
func driveMixed(cluster *lambdafs.Cluster, scraper *telemetry.Scraper, seconds, clients int) {
	clk := cluster.Clock()
	cluster.Run(func() {
		scraper.ScrapeNow()
		end := clk.Now().Add(time.Duration(seconds) * time.Second)
		g := clock.NewGroup(clk)
		for i := 0; i < clients; i++ {
			g.Go(func() {
				cl := cluster.NewClient(fmt.Sprintf("top-%d", i))
				dir := fmt.Sprintf("/.top/c%d", i)
				cl.MkdirAll(dir)
				for n := 0; clk.Now().Before(end); n++ {
					path := fmt.Sprintf("%s/f%d", dir, n%40)
					switch n % 5 {
					case 0:
						cl.Create(path)
					case 1:
						cl.List(dir)
					default:
						cl.Stat(dir)
					}
				}
			})
		}
		scraper.Start()
		g.Wait()
		scraper.Stop()
	})
}

// sloHistory records the rule states at each scrape tick so watch can
// render a per-second timeline after the fact.
type sloHistory struct {
	mu      sync.Mutex
	samples []sloSample
}

type sloSample struct {
	tus      int64
	statuses []slo.RuleStatus
}

func (h *sloHistory) record(tus int64, statuses []slo.RuleStatus) {
	h.mu.Lock()
	h.samples = append(h.samples, sloSample{tus: tus, statuses: statuses})
	h.mu.Unlock()
}

func (h *sloHistory) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

func (h *sloHistory) since(i int) []sloSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]sloSample(nil), h.samples[i:]...)
}

// printSLO renders the rule pack's current state and the most recent
// alert transitions.
func printSLO(eng *slo.Engine) {
	fmt.Printf("%-22s %-10s %-9s %12s %12s  %s\n", "rule", "kind", "state", "value", "bound", "since")
	for _, st := range eng.Status() {
		state := st.State
		if st.Muted {
			state += " (muted)"
		}
		since := "-"
		if st.SinceTUS > 0 {
			since = fmt.Sprintf("t+%v", slo.EpochTime(st.SinceTUS).Sub(clock.Epoch).Round(time.Millisecond))
		}
		fmt.Printf("%-22s %-10s %-9s %12.6g %12.6g  %s\n",
			st.Name, st.Kind, state, st.Value, st.Bound, since)
	}
	trs := eng.Transitions()
	if len(trs) == 0 {
		fmt.Println("no alert transitions this session")
		return
	}
	const maxTrans = 8
	if len(trs) > maxTrans {
		trs = trs[len(trs)-maxTrans:]
	}
	fmt.Printf("recent transitions (%d):\n", len(trs))
	for _, tr := range trs {
		fmt.Printf("  t+%-12v %-22s %s -> %s (value=%.6g bound=%.6g)\n",
			slo.EpochTime(tr.TUS).Sub(clock.Epoch).Round(time.Microsecond),
			tr.Rule, tr.From, tr.To, tr.Value, tr.Bound)
	}
}

// runWatch drives the same mixed workload as top while rendering the SLO
// plane instead: one row per virtual-second scrape, one column per rule
// (. inactive, P pending, F firing), then the final rule states.
func runWatch(cluster *lambdafs.Cluster, scraper *telemetry.Scraper, eng *slo.Engine, log *sloHistory, seconds, clients int) {
	before := log.len()
	driveMixed(cluster, scraper, seconds, clients)
	samples := log.since(before)
	if len(samples) == 0 {
		fmt.Println("watch: no samples collected")
		return
	}
	if len(samples) > 1 {
		samples = samples[1:] // drop the pre-workload baseline scrape
	}
	if len(samples) > seconds {
		samples = samples[:seconds]
	}
	fmt.Printf("%8s", "t")
	for _, st := range samples[0].statuses {
		name := st.Name
		if len(name) > 14 {
			name = name[:14]
		}
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, s := range samples {
		fmt.Printf("%8s", fmt.Sprintf("%ds", s.tus/1e6))
		for _, st := range s.statuses {
			mark := "."
			switch st.State {
			case slo.StatePending:
				mark = "P"
			case slo.StateFiring:
				mark = "F"
			}
			fmt.Printf(" %7s %6.3g", mark, st.Value)
		}
		fmt.Println()
	}
	printSLO(eng)
}

// printTraces renders the n most recent traces as indented span trees,
// followed by the most recent structured events.
func printTraces(tr *trace.Tracer, n int) {
	traces := tr.Traces()
	if len(traces) == 0 {
		fmt.Println("no traces recorded yet")
		return
	}
	if n > len(traces) {
		n = len(traces)
	}
	for _, t := range traces[len(traces)-n:] {
		e2e := t.End().Sub(t.Start)
		status := "ok"
		if err := t.Err(); err != "" {
			status = err
		}
		fmt.Printf("trace %d: %s %s client=%s t+%v e2e=%v (%s)\n",
			t.ID, t.Op, t.Path, t.Client, t.Start.Sub(clock.Epoch).Round(time.Microsecond), e2e, status)
		spans := t.Spans()
		children := make(map[uint64][]trace.Span, len(spans))
		for _, s := range spans {
			children[s.Parent] = append(children[s.Parent], s)
		}
		var walk func(parent uint64, depth int)
		walk = func(parent uint64, depth int) {
			for _, s := range children[parent] {
				tags := ""
				if s.Deployment >= 0 {
					tags += fmt.Sprintf(" dep=%d", s.Deployment)
				}
				if s.Shard >= 0 {
					tags += fmt.Sprintf(" shard=%d", s.Shard)
				}
				if s.Instance != "" {
					tags += " inst=" + s.Instance
				}
				if s.Detail != "" {
					tags += " " + s.Detail
				}
				fmt.Printf("  %s%-18s %10v  +%v%s\n", strings.Repeat("  ", depth),
					s.Kind, s.Dur, s.Start.Sub(t.Start), tags)
				walk(s.ID, depth+1)
			}
		}
		walk(0, 0)
	}
	events := tr.Events()
	if len(events) == 0 {
		return
	}
	const maxEvents = 10
	if len(events) > maxEvents {
		events = events[len(events)-maxEvents:]
	}
	fmt.Printf("recent events (%d):\n", len(events))
	for _, ev := range events {
		who := ev.Client
		if ev.Instance != "" {
			who = ev.Instance
		}
		fmt.Printf("  t+%-12v %-18s %s %s\n",
			ev.Time.Sub(clock.Epoch).Round(time.Microsecond), ev.Type, who, ev.Detail)
	}
}

func report(cmd, target string, err error) {
	if err != nil {
		fmt.Printf("%s %s: %v\n", cmd, target, err)
		return
	}
	fmt.Printf("%s %s: ok\n", cmd, target)
}
