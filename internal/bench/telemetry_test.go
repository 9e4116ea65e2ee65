package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
)

// TestMetricsArtifacts runs a miniature Spotify experiment with
// ArtifactDir set (the library form of `lambdafs-bench -out DIR`) and
// checks both artifacts: the Prometheus text dump must cover every
// instrumented subsystem, and the scraped snapshot series must be
// chronologically ordered virtual-time samples in which the hot-path
// counters actually advance.
func TestMetricsArtifacts(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	opts.ArtifactDir = dir
	sp := spotifyParams{
		exp: "mini", base: 2000, duration: 5 * time.Second, interval: 5 * time.Second,
		targets: []float64{2000}, clients: 32, dirs: 16, files: 50,
	}
	run := runSpotifyLambda(opts, sp, "λFS", -1, 256, 0)
	if run.rec.Completed.Load() == 0 {
		t.Fatal("no operations completed")
	}

	prom, err := os.ReadFile(filepath.Join(dir, "mini-fs.prom"))
	if err != nil {
		t.Fatalf("prometheus dump: %v", err)
	}
	for _, prefix := range []string{
		"lambdafs_ndb_", "lambdafs_faas_", "lambdafs_rpc_",
		"lambdafs_core_", "lambdafs_coordinator_", "lambdafs_cost_",
	} {
		if !strings.Contains(string(prom), prefix) {
			t.Errorf("prometheus dump has no %s* instruments", prefix)
		}
	}
	if !strings.Contains(string(prom), "# TYPE ") {
		t.Error("prometheus dump missing TYPE headers")
	}

	raw, err := os.ReadFile(filepath.Join(dir, "mini-fs-snapshots.json"))
	if err != nil {
		t.Fatalf("snapshot series: %v", err)
	}
	var snaps []struct {
		TUS    int64              `json:"t_us"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(raw, &snaps); err != nil {
		t.Fatalf("snapshot series is not JSON: %v", err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots for a %v run", len(snaps), sp.duration)
	}
	// Non-decreasing, not strictly increasing: the end-of-run ScrapeNow
	// shares the final tick's virtual timestamp.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].TUS < snaps[i-1].TUS {
			t.Fatalf("snapshots not chronologically ordered: t_us %d after %d",
				snaps[i].TUS, snaps[i-1].TUS)
		}
	}
	if snaps[len(snaps)-1].TUS <= snaps[0].TUS {
		t.Fatal("snapshot series spans no virtual time")
	}
	first, last := snaps[0].Values, snaps[len(snaps)-1].Values
	for _, key := range []string{
		"lambdafs_faas_invocations_total",
		"lambdafs_ndb_tx_commits_total",
	} {
		if last[key] <= first[key] || last[key] == 0 {
			t.Errorf("series %s did not advance: first=%v last=%v", key, first[key], last[key])
		}
	}
	if last["lambdafs_faas_active_instances"] <= 0 {
		t.Error("no active NameNodes in the final snapshot")
	}
	if last["lambdafs_cost_payperuse_usd"] <= 0 {
		t.Error("pay-per-use cost gauge never accrued")
	}
}

// metricSubsystems are the <subsystem>s a metric name may carry: the
// packages that register instruments, and cost, the billing meters the
// cluster exposes.
var metricSubsystems = []string{"coordinator", "core", "cost", "faas", "ndb", "rpc", "slo", "tenant"}

var metricNameRe = regexp.MustCompile(`^lambdafs_([a-z0-9]+)(_[a-z0-9]+)+$`)

// TestMetricNames walks every instrument of the telemetry planes the
// experiments build: a scale point's (the cluster with tenant admission),
// the slo experiment's (a durable store under the rule engine) and the
// crash_restart alert family's (a durable store crashed and recovered). A
// name is lambdafs_<subsystem>_<metric> with a known subsystem; a counter
// ends in _total, a gauge does not, and a histogram ends in a unit; a
// metric's series carry one set of at most 3 label keys. Every subsystem
// must show up, so the walk covers every registering package.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	planes := map[string]*telemetry.Registry{
		"scale":   runScalePoint(scalePoint{clients: 16, seconds: 1}, 1).reg,
		"slo":     sloPlane(t),
		"restart": restartPlane(t),
	}
	for plane, reg := range planes {
		keys := map[string]string{} // metric name → its series' label keys
		for _, m := range reg.Gather() {
			sub := metricNameRe.FindStringSubmatch(m.Name)
			if sub == nil {
				t.Errorf("%s: metric %q does not match lambdafs_<subsystem>_<metric>", plane, m.Name)
				continue
			}
			if !slices.Contains(metricSubsystems, sub[1]) {
				t.Errorf("metric %q: subsystem %q is not a known one %v", m.Name, sub[1], metricSubsystems)
			}
			seen[sub[1]] = true
			checkMetricKind(t, m)
			var ks []string
			for _, l := range m.Labels {
				ks = append(ks, l.Key)
			}
			if len(ks) > 3 {
				t.Errorf("metric %q has %d labels, at most 3", m.Name, len(ks))
			}
			k := strings.Join(ks, ",")
			if prev, ok := keys[m.Name]; ok && prev != k {
				t.Errorf("metric %q: series label keys {%s} and {%s} differ", m.Name, prev, k)
			}
			keys[m.Name] = k
		}
	}
	for _, sub := range metricSubsystems {
		if !seen[sub] {
			t.Errorf("no plane registers a lambdafs_%s_* metric", sub)
		}
	}
}

// checkMetricKind holds a metric's suffix to its kind.
func checkMetricKind(t *testing.T, m telemetry.Metric) {
	t.Helper()
	total := strings.HasSuffix(m.Name, "_total")
	switch m.Kind {
	case telemetry.KindCounter:
		if !total {
			t.Errorf("counter %q must end in _total", m.Name)
		}
	case telemetry.KindGauge:
		if total {
			t.Errorf("gauge %q must not end in _total", m.Name)
		}
	case telemetry.KindHistogram:
		if !strings.HasSuffix(m.Name, "_seconds") && !strings.HasSuffix(m.Name, "_bytes") &&
			!strings.HasSuffix(m.Name, "_ratio") {
			t.Errorf("histogram %q must end in a unit suffix (_seconds, _bytes, _ratio)", m.Name)
		}
	}
}

// sloPlane builds the slo experiment's telemetry plane (sloLive): a
// cluster on a durable store, with the rule engine registered beside it.
func sloPlane(t *testing.T) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := lambdaConfig(clk, 1)
		cfg.Store.Metrics = reg
		cfg.Store.Durable = ndb.NewDurable(clk, cfg.Store.DataNodes, lsm.DefaultConfig())
		slo.New(slo.Config{Registry: reg}).AddRules(slo.Rules())
		mustLambda(cfg).Close()
	})
	return reg
}

// restartPlane builds the crash_restart alert family's telemetry plane: a
// durable store instrumented into the registry, crashed after one commit
// and rebuilt by ndb.Recover, which registers the recovery instruments.
func restartPlane(t *testing.T) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := ndb.DefaultConfig()
		cfg.Metrics = reg
		cfg.Durable = ndb.NewDurable(clk, cfg.DataNodes, lsm.DefaultConfig())
		cfg.Durability = ndb.DefaultDurabilityConfig()
		db := ndb.New(clk, cfg)
		tx := db.Begin("restart")
		if err := tx.PutINode(&namespace.INode{
			ID: db.NextID(), ParentID: namespace.RootID, Name: "d",
			IsDir: true, Perm: namespace.PermDefaultDir,
		}); err != nil {
			t.Fatalf("put /d: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit /d: %v", err)
		}
		if _, _, err := ndb.Recover(clk, cfg); err != nil {
			t.Fatalf("recover: %v", err)
		}
	})
	return reg
}
