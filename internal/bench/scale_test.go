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
	}
}

func writeTinyScaleBaseline(t *testing.T) (string, Options, *ScaleBaseline) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scale.json")
	opts := Options{Scale: Tiny, Seed: 1, Out: io.Discard}
	cur, _ := ScaleMeasure(opts)
	if err := writeBaselineFile(path, cur); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	return path, opts, cur
}

// TestScaleBaselineRoundTrip writes a tiny baseline and immediately
// re-checks it: a freshly measured baseline must hold.
func TestScaleBaselineRoundTrip(t *testing.T) {
	path, opts, _ := writeTinyScaleBaseline(t)
	if err := CheckScaleBaseline(path, opts); err != nil {
		t.Fatalf("fresh baseline did not hold: %v", err)
	}
}

// TestScaleBaselineCatchesDrift is the sabotage proof for the gate:
// corrupting any gated column of the committed file must fail the check
// and name the column.
func TestScaleBaselineCatchesDrift(t *testing.T) {
	_, opts, b := writeTinyScaleBaseline(t)
	sabotage := map[string]func(r *ScaleRow){
		"ops":              func(r *ScaleRow) { r.Ops++ },
		"throttled":        func(r *ScaleRow) { r.Throttled++ },
		"p50_us":           func(r *ScaleRow) { r.P50Us += 3 },
		"p99_us":           func(r *ScaleRow) { r.P99Us += 17 },
		"cold_starts":      func(r *ScaleRow) { r.ColdStarts++ },
		"peak_instances":   func(r *ScaleRow) { r.PeakInstances-- },
		"tenant admitted":  func(r *ScaleRow) { r.Tenants[0].Admitted++ },
		"tenant throttled": func(r *ScaleRow) { r.Tenants[3].Throttled-- },
		"tenant p99_us":    func(r *ScaleRow) { r.Tenants[1].P99Us++ },
	}
	for name, corrupt := range sabotage {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal baseline: %v", err)
		}
		var mutated ScaleBaseline
		if err := json.Unmarshal(data, &mutated); err != nil {
			t.Fatalf("parse baseline: %v", err)
		}
		corrupt(mutated.Rows[scaleKey(scalePoints(opts.Scale)[0].clients)])
		mpath := filepath.Join(t.TempDir(), "mutated.json")
		if err := writeBaselineFile(mpath, &mutated); err != nil {
			t.Fatalf("write mutated baseline: %v", err)
		}
		err = CheckScaleBaseline(mpath, opts)
		if err == nil {
			t.Errorf("%s corruption went undetected", name)
		} else if col := strings.Fields(name)[0]; !strings.Contains(err.Error(), col) {
			t.Errorf("%s corruption produced an error that does not name the column: %v", name, err)
		}
	}
}

// TestScaleBaselineRejectsBadSchema: a file of the deleted queueing
// proxy (schema v1) must be refused with the regenerate hint, not
// compared.
func TestScaleBaselineRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	doc := `{"schema":"lambdafs-scale-baseline/v1","mode":"tiny","seed":1,"rows":{}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := CheckScaleBaseline(path, Options{Scale: Tiny, Seed: 1})
	if err == nil {
		t.Fatalf("stale schema accepted")
	}
	if !strings.Contains(err.Error(), "-baseline scale") {
		t.Fatalf("error lacks the regenerate hint: %v", err)
	}
	// A mode that names no Scale is refused too, not measured at Full.
	doc = `{"schema":"` + ScaleSchema + `","mode":"medium","seed":1,"rows":{}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := CheckScaleBaseline(path, Options{Seed: 1}); err == nil || !strings.Contains(err.Error(), `"medium"`) {
		t.Fatalf("unknown mode: err %v", err)
	}
}
