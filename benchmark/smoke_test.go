package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const smokeScale = 0.01

// TestSmoke runs every workload at 1/100 size through both modes, plus
// every direct-call row, and requires all named metrics to be present,
// finite and correctly signed. It keeps the harness compiling and honest;
// it measures nothing.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bench := layerBench(1, 256)
	p2, err := p2HostRatio(1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	bench["clock.p2_host_ratio"] = p2
	for _, sp := range specs(smokeScale) {
		plain, err := runEpisode(sp, 1, false, true)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		traced, err := runEpisode(sp, 1, true, false)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if plain.failed+traced.failed != 0 {
			t.Errorf("%s: %d operations failed: %v", sp.name, plain.failed+traced.failed, append(plain.faults, traced.faults...))
		}
		if sp.recover && (plain.recovery == nil || plain.recovery.ReplayedRecords == 0) {
			t.Errorf("%s: crash+recover replayed nothing", sp.name)
		}
		check := func(defs []metricDef, values map[string]float64) {
			for _, d := range defs {
				v, ok := values[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", sp.name, d.Name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s: metric %s = %v", sp.name, d.Name, v)
				case v < 0 && !mayBeNegative[d.Name]:
					t.Errorf("%s: metric %s = %v, want >= 0", sp.name, d.Name, v)
				case v == 0 && d.Bound != 0:
					t.Errorf("%s: end-to-end metric %s is 0", sp.name, d.Name)
				}
			}
		}
		check(endToEnd, endToEndValues([]*episode{plain, plain, plain}))
		check(perLayer, layerValues(plain, traced, bench))
		dir := t.TempDir()
		if err := traced.writeTrace(dir); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(filepath.Join(dir, sp.name+".trace.jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace dump missing or empty (%v)", sp.name, err)
		}
	}
}

// mayBeNegative lists the differences between two runs (traced minus
// untraced) and the unattributed remainder, which overlapping parallel
// spans push below zero.
var mayBeNegative = map[string]bool{
	"trace.host_overhead_ratio":         true,
	"trace.allocs_per_op_delta":         true,
	"trace.virt_unattributed_us_per_op": true,
}

// TestManifest keeps BENCHMARK.json and the harness's own tables in step.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var m struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	sps := specs(1)
	if len(m.Workloads) != len(sps) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(m.Workloads), len(sps))
	}
	for i, sp := range sps {
		if m.Workloads[i].Name != sp.name || m.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, m.Workloads[i].Name, sp.name)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic result files.
func TestCompare(t *testing.T) {
	mk := func(vals ...float64) []run {
		var rs []run
		for _, v := range vals {
			rs = append(rs, run{Workload: "read_hot", Correct: true, Attempted: 1000,
				Metrics: map[string]metric{"virt_ops_per_s": {v, "ops/s"}, "setup_s": {1 / v, "s"}}})
		}
		return rs
	}
	dir := t.TempDir()
	write := func(name string, rs []run) string {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(100, 101, 99, 100, 100.5))
	for _, c := range []struct {
		name string
		b    []run
		want string
		bad  bool
	}{
		{"same", mk(100.2, 100.9, 99.5, 100, 100.1), "same", false},
		{"worse", mk(90, 91, 89.5, 90, 90.2), "worse", true},
		{"better", mk(110, 111, 109, 110, 110.4), "better", false},
		{"unresolved", mk(80, 120, 100, 70, 130), "unresolved", false},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, base, write(c.name+".json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "virt_ops_per_s") {
				row = line
			}
		}
		if !strings.Contains(row, " "+c.want+" ") || bad != c.bad {
			t.Errorf("%s: got row %q (worse=%v), want verdict %s (worse=%v)", c.name, row, bad, c.want, c.bad)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
