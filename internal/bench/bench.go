// Package bench implements the paper's evaluation (§5): one experiment
// per table and figure, each wiring the systems under test (λFS, HopsFS,
// HopsFS+Cache, InfiniCache, CephFS, IndexFS/λIndexFS) onto the
// discrete-event simulation clock with the paper's deployment shapes, and
// printing the same rows/series the paper reports.
//
// Absolute numbers come from this repository's simulated substrates, not
// the authors' AWS testbed; the *shapes* — who wins, by roughly what
// factor, where crossovers fall — are the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
)

// Scale sizes an experiment: its op counts, durations, client sweeps and
// tree shapes.
type Scale int

const (
	// Full uses the paper's counts (slow). It is the zero value.
	Full Scale = iota
	// Quick trims durations and per-client op counts so that the suite
	// runs in minutes.
	Quick
	// Tiny shrinks further, to the sizes the repository's tests and
	// testing.B benchmarks (bench_test.go) run at.
	Tiny
)

// String names the scale; it is also a baseline file's mode.
func (s Scale) String() string { return [...]string{"full", "quick", "tiny"}[s] }

// scaled picks the value for s: full, quick or tiny.
func scaled[T any](s Scale, full, quick, tiny T) T { return [...]T{full, quick, tiny}[s] }

// Options control an experiment run.
type Options struct {
	// Scale sizes every experiment (the zero value is Full).
	Scale Scale
	// Seed drives all workload randomness.
	Seed int64
	// Out receives the rendered tables (defaults to io.Discard when nil).
	Out io.Writer
	// TraceDir, when non-empty, receives raw trace/event JSONL dumps from
	// the experiments that run with tracing enabled.
	TraceDir string
	// MetricsDir, when non-empty, receives per-experiment telemetry
	// artifacts: scraped snapshot series as JSON plus a final
	// Prometheus-text registry dump, and flight-recorder JSONL dumps from
	// failing chaos episodes.
	MetricsDir string
	// ChaosSeed, when > 0, makes the chaos experiment replay that single
	// deterministic episode instead of its standard seed sweep (the seed a
	// failing run printed).
	ChaosSeed int64
	// SLODir, when non-empty, receives the slo experiment's artifacts:
	// the alert-coverage battery results as JSON, the live run's alert
	// transition log as JSONL, and the live telemetry plane.
	SLODir string
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// Table is one rendered result artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// WriteCSV writes the table as RFC-4180 CSV (header row first); the
// harness uses it to export figure data for external plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to dir/<ID>.csv.
func (t *Table) SaveCSV(dir string) error {
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a named, runnable reproduction unit.
type Experiment struct {
	Name  string
	Brief string
	Run   func(opts Options) []*Table
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"tab2", "Table 2: Spotify workload operation mix self-check", RunTab2},
		{"fig8a", "Figure 8(a): Spotify workload, 25k ops/s base", func(o Options) []*Table { return RunFig8(o, 25000) }},
		{"fig8b", "Figure 8(b): Spotify workload, 50k ops/s base", func(o Options) []*Table { return RunFig8(o, 50000) }},
		{"fig9", "Figure 9 + 8(c): cumulative cost and performance-per-cost", RunFig9},
		{"fig10", "Figure 10: latency CDFs per operation type", RunFig10},
		{"fig11", "Figure 11: client-driven scaling", RunFig11},
		{"fig12", "Figure 12: resource scaling", RunFig12},
		{"fig13", "Figure 13: performance-per-cost vs clients", RunFig13},
		{"fig14", "Figure 14: auto-scaling ablation", RunFig14},
		{"tab3", "Table 3: subtree mv latency", RunTab3},
		{"fig15", "Figure 15: fault tolerance under the Spotify workload", RunFig15},
		{"fig16", "Figure 16: λIndexFS vs IndexFS (tree-test)", RunFig16},
		{"ablation-rpc", "Ablation: hybrid RPC and replacement probability", RunAblationRPC},
		{"ablation-batch", "Ablation: subtree batch size and offloading", RunAblationBatch},
		{"hotpath", "Hot-path parallelism: batched resolution, fan-out invalidation, partitioned subtree mv", RunHotpath},
		{"trace", "Observability: latency decomposition and structured event log", RunTrace},
		{"chaos", "Chaos: deterministic fault-injection episodes + full-stack fault storm", RunChaos},
		{"restart", "Durability: recovery time vs WAL length + crash_restart episode battery", RunRestart},
		{"slo", "SLOs: chaos alert-coverage battery + default rule pack on a live deployment", RunSLO},
		{"scale", "Scalability: 10³–10⁴-client (-full: 3·10⁴) curve of the real stack with multi-tenant admission: throughput, p50/p99, cold starts, fleet", RunScale},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// System builders. All experiments use the paper's deployment shapes; the
// DES clock makes full-scale capacities affordable.

// ndbConfig is the shared 4-data-node NDB deployment. Calibrated so the
// store is the read bottleneck for cache-less HopsFS and the write
// bottleneck for everyone (§5.3).
func ndbConfig() ndb.Config {
	return ndb.Config{
		DataNodes:       4,
		WorkersPerNode:  2,
		RTT:             300 * time.Microsecond,
		ReadService:     300 * time.Microsecond,
		WriteService:    250 * time.Microsecond,
		BatchRows:       64,
		LockWaitTimeout: 500 * time.Millisecond,
	}
}

// lambdaConfig is the paper's λFS deployment on clk: the shared NDB
// deployment, a 300 µs coordinator hop, a 512-vCPU/8192-GB platform and
// 16 deployments of 6.25-vCPU/30-GB NameNodes at concurrency 1. seed feeds
// rpc.Config.Seed. Experiments adjust the fields they vary.
func lambdaConfig(clk *clock.Sim, seed int64) lambdafs.Config {
	cfg := lambdafs.DefaultConfig()
	cfg.Clock = clk
	cfg.Store = ndbConfig()
	cfg.CoordinatorHop = 300 * time.Microsecond
	cfg.Platform.TotalRAMGB = 8192
	cfg.ConcurrencyLevel = 1
	cfg.RPC.Seed = seed
	return cfg
}

// lambdaClients spreads clients over vms client VMs, the cluster's own
// and vms-1 new ones: client i is named c%04d and runs on VM i mod vms.
func lambdaClients(c *lambdafs.Cluster, vms int) func(i int) *rpc.Client {
	all := []*rpc.VM{c.VM()}
	for len(all) < vms {
		all = append(all, c.NewVM())
	}
	sys := c.System()
	return func(i int) *rpc.Client {
		return all[i%vms].NewClient(fmt.Sprintf("c%04d", i), sys.Ring(), sys)
	}
}

// mustLambda is lambdafs.NewCluster for a config that cannot fail: the
// bench configs all name the ZooKeeper coordinator.
func mustLambda(cfg lambdafs.Config) *lambdafs.Cluster {
	c, err := lambdafs.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func fmtOps(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/1e3)
	}
}

func fmtUSD(v float64) string { return fmt.Sprintf("$%.4f", v) }

// headings is first followed by one column heading per value.
func headings(first, format string, vs []int) []string {
	out := []string{first}
	for _, v := range vs {
		out = append(out, fmt.Sprintf(format, v))
	}
	return out
}

func ratio(a, b float64) string {
	if b <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
