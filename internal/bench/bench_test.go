package bench

import (
	"os"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/workload"
)

func tinyOpts() Options {
	return Options{Scale: Quick, Seed: 7}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab2", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "tab3", "fig15", "fig16", "ablation-rpc", "ablation-batch", "trace", "chaos"}
	for _, name := range want {
		if _, ok := Find(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestTab2Mix(t *testing.T) {
	tables := RunTab2(tinyOpts())
	if len(tables) != 1 || len(tables[0].Rows) != 8 {
		t.Fatalf("tab2 shape: %+v", tables)
	}
}

func TestMicroPointLambdaVsHops(t *testing.T) {
	// One tiny closed-loop point per system: λFS's cached reads must beat
	// stateless HopsFS (the evaluation's central claim).
	opts := tinyOpts()
	lam := runMicro(opts, lambdaMicro(opts.Seed, nil), namespace.OpRead, 32, 512, 48)
	hops := runMicro(opts, hopsMicro(false), namespace.OpRead, 32, 512, 48)
	if lam.throughput <= 0 || hops.throughput <= 0 {
		t.Fatalf("throughputs: λFS=%v hops=%v", lam.throughput, hops.throughput)
	}
	if lam.throughput < hops.throughput {
		t.Fatalf("λFS read throughput %.0f below HopsFS %.0f", lam.throughput, hops.throughput)
	}
	if lam.meanLat >= hops.meanLat {
		t.Fatalf("λFS read latency %v not below HopsFS %v", lam.meanLat, hops.meanLat)
	}
}

func TestMicroPointOtherBaselines(t *testing.T) {
	opts := tinyOpts()
	for _, sys := range []microSystem{hopsMicro(true), infiniMicro(), cephMicro()} {
		r := runMicro(opts, sys, namespace.OpStat, 16, 512, 32)
		if r.throughput <= 0 {
			t.Fatalf("%s produced no throughput", sys.name)
		}
	}
}

func TestSubtreeMvLatencyScalesWithSize(t *testing.T) {
	opts := tinyOpts()
	mv := func(size int) time.Duration {
		dirs, files := workload.DeepNamespace("/mvroot", size)
		return timeOp(lambdaMicro(opts.Seed, nil), dirs, files, namespace.OpMv, "/mvroot", "/moved")
	}
	small, big := mv(1<<9), mv(1<<12)
	if small <= 0 || big <= 0 {
		t.Fatalf("latencies: %v %v", small, big)
	}
	if big <= small {
		t.Fatalf("subtree mv latency did not grow with size: %v vs %v", small, big)
	}
}

func TestTreeTestRunners(t *testing.T) {
	opts := tinyOpts()
	i := runTreeTest(opts, false, 4, 50, 50)
	l := runTreeTest(opts, true, 4, 50, 50)
	if i.WriteOps != 200 || l.WriteOps != 200 {
		t.Fatalf("write ops: %d / %d", i.WriteOps, l.WriteOps)
	}
	if i.ReadErrs > 0 || l.ReadErrs > 0 {
		t.Fatalf("read errors: %d / %d", i.ReadErrs, l.ReadErrs)
	}
	if i.WriteDur <= 0 || l.WriteDur <= 0 {
		t.Fatal("durations missing")
	}
}

func TestSpotifyTinyRun(t *testing.T) {
	// A miniature Spotify run end to end on λFS (5 virtual seconds).
	opts := tinyOpts()
	sp := spotifyParams{
		base: 2000, duration: 5 * time.Second, interval: 5 * time.Second,
		targets: []float64{2000}, clients: 32, dirs: 16, files: 50,
	}
	run := runSpotifyLambda(opts, sp, "λFS", -1, 256, 0)
	if run.rec.Completed.Load() == 0 {
		t.Fatal("no operations completed")
	}
	if run.costUSD <= 0 {
		t.Fatal("no cost accrued")
	}
	mean := run.rec.Throughput.MeanRate()
	if mean < sp.base/2 {
		t.Fatalf("λFS failed to track even half the base rate: %.0f ops/s", mean)
	}
}

func TestSpotifyHopsTinyRun(t *testing.T) {
	opts := tinyOpts()
	sp := spotifyParams{
		base: 2000, duration: 5 * time.Second, interval: 5 * time.Second,
		targets: []float64{2000}, clients: 32, dirs: 16, files: 50,
	}
	run := runSpotifyHops(opts, sp, "HopsFS", false, 512)
	if run.rec.Completed.Load() == 0 {
		t.Fatal("no operations completed")
	}
	if run.costUSD <= 0 {
		t.Fatal("no cost computed")
	}
}

func TestTableCSVExport(t *testing.T) {
	tb := &Table{
		ID:      "csvtest",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `q"z`}},
	}
	dir := t.TempDir()
	if err := tb.SaveCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/csvtest.csv")
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"a,b\n", `"x,y"`, `"q""z"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("csv missing %q:\n%s", want, got)
		}
	}
}
