package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lambdafs"
	"lambdafs/internal/telemetry"
)

// TestScalePointDeterminism pins the bit-determinism claim the baseline
// gate rests on: the same (point, seed) must reproduce the exact row —
// check.sh also runs it at -cpu 1,2,4 — and a different seed must not.
func TestScalePointDeterminism(t *testing.T) {
	pt := scalePoint{clients: 400, seconds: 4}
	a := runScalePoint(pt, 1).row
	b := runScalePoint(pt, 1).row
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", *a, *b)
	}
	if c := runScalePoint(pt, 2).row; reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced the same row %+v", *a)
	}
}

// TestScaleMeasureTiny checks the sweep's physics at tiny scale: every
// point serves ops over the real request path (each layer's counters
// move), every deployment cold-started at least its warm instance, and
// admission clips the underprovisioned crawler class and nobody else.
func TestScaleMeasureTiny(t *testing.T) {
	b, results := ScaleMeasure(Options{Scale: Tiny, Seed: 1, Out: io.Discard})
	if b.Schema != ScaleSchema {
		t.Fatalf("schema %q, want %q", b.Schema, ScaleSchema)
	}
	if b.Mode != "tiny" {
		t.Fatalf("mode %q, want tiny", b.Mode)
	}
	if len(b.Rows) != len(results) || len(results) == 0 {
		t.Fatalf("rows/results %d/%d", len(b.Rows), len(results))
	}
	for _, r := range results {
		key, row := scaleKey(r.clients), r.row
		if row.Ops == 0 {
			t.Errorf("%s: no ops served", key)
		}
		if row.P99Us < row.P50Us {
			t.Errorf("%s: p99 %dus below p50 %dus", key, row.P99Us, row.P50Us)
		}
		if deps := lambdafs.DefaultConfig().Deployments; row.ColdStarts < uint64(deps) || row.PeakInstances < deps {
			t.Errorf("%s: %d cold starts, peak %d instances; want at least one per deployment (%d)",
				key, row.ColdStarts, row.PeakInstances, deps)
		}
		// The row comes from the real path: every layer under the client
		// counted work in this point's registry.
		moved := map[string]bool{}
		for _, m := range r.reg.Gather() {
			if m.Kind != telemetry.KindCounter || m.Value == 0 {
				continue
			}
			for _, layer := range []string{"rpc", "faas", "core", "ndb"} {
				if strings.HasPrefix(m.Name, "lambdafs_"+layer+"_") {
					moved[layer] = true
				}
			}
		}
		if len(moved) != 4 {
			t.Errorf("%s: layers with non-zero counters %v, want rpc, faas, core and ndb", key, moved)
		}
		// The crawler class is provisioned below its demand by design; if
		// it is not clipped, admission control is not in the request path.
		// The gate's own counter is the witness.
		for _, ts := range row.Tenants {
			gate := r.reg.Counter("lambdafs_tenant_throttled_total", telemetry.L("tenant", ts.Tenant)).Value()
			if uint64(gate) != ts.Throttled {
				t.Errorf("%s/%s: row says %d throttled, lambdafs_tenant_throttled_total %v",
					key, ts.Tenant, ts.Throttled, gate)
			}
			if ts.Admitted == 0 {
				t.Errorf("%s/%s: nothing admitted", key, ts.Tenant)
			}
			if clipped := ts.Throttled > 0; clipped != (ts.Tenant == "crawler") {
				t.Errorf("%s/%s: throttled %d of %d; want only the crawler clipped",
					key, ts.Tenant, ts.Throttled, ts.Admitted+ts.Throttled)
			}
		}
		if row.Throttled == 0 {
			t.Errorf("%s: clients saw no throttled reply", key)
		}
		checkDecidedOnce(t, key, row)
	}
}

// checkDecidedOnce holds a scale row to admission once per (ClientID, Seq):
// the tenants' admitted sum is the replies the clients were served, and
// their throttled sum the throttled replies, however many copies of a raced
// request reached an engine.
func checkDecidedOnce(t *testing.T, key string, row *ScaleRow) {
	t.Helper()
	var admitted, throttled uint64
	for _, ts := range row.Tenants {
		admitted, throttled = admitted+ts.Admitted, throttled+ts.Throttled
	}
	if admitted != row.Ops || throttled != row.Throttled {
		t.Errorf("%s: tenants admitted %d and throttled %d; the clients were served %d replies and throttled %d",
			key, admitted, throttled, row.Ops, row.Throttled)
	}
}

// TestScaleBaselineDecidesOnce holds every row of the committed quick scale
// baseline, c10000 included, to checkDecidedOnce. check.sh's -check step
// re-measures the file leaf by leaf, so the rows are what the code measures.
func TestScaleBaselineDecidesOnce(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b ScaleBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Rows[scaleKey(10000)] == nil {
		t.Fatalf("the committed baseline has no %s row", scaleKey(10000))
	}
	for key, row := range b.Rows {
		checkDecidedOnce(t, key, row)
	}
}
