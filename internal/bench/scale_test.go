package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScalePointDeterminism pins the bit-determinism claim the baseline
// gate rests on: the same (point, seed) must reproduce the exact event
// stream, and a different seed must not.
func TestScalePointDeterminism(t *testing.T) {
	pt := scalePoint{clients: 2_000, seconds: 2}
	a := runScalePoint(pt, 1)
	b := runScalePoint(pt, 1)
	if a.digest != b.digest {
		t.Fatalf("same seed diverged: digest %016x vs %016x", a.digest, b.digest)
	}
	if a.ops != b.ops || a.throttled != b.throttled {
		t.Fatalf("same seed diverged: ops/throttled %d/%d vs %d/%d",
			a.ops, a.throttled, b.ops, b.throttled)
	}
	if a.p50 != b.p50 || a.p99 != b.p99 {
		t.Fatalf("same seed diverged: p50/p99 %v/%v vs %v/%v",
			a.p50, a.p99, b.p50, b.p99)
	}
	c := runScalePoint(pt, 2)
	if c.digest == a.digest {
		t.Fatalf("different seeds produced the same digest %016x", a.digest)
	}
}

// TestScaleMeasureTiny checks the model's physics at tiny scale: every
// point produces work, admission visibly throttles the underprovisioned
// crawler class, and the digest is populated.
func TestScaleMeasureTiny(t *testing.T) {
	b, results := ScaleMeasure(Options{Tiny: true, Seed: 1, Out: io.Discard})
	if b.Schema != ScaleSchema {
		t.Fatalf("schema %q, want %q", b.Schema, ScaleSchema)
	}
	if b.Mode != "tiny" {
		t.Fatalf("mode %q, want tiny", b.Mode)
	}
	if len(b.Rows) != len(results) || len(results) == 0 {
		t.Fatalf("rows/results %d/%d", len(b.Rows), len(results))
	}
	for key, row := range b.Rows {
		if row.Ops == 0 {
			t.Errorf("%s: no ops completed", key)
		}
		if row.Digest == "" || row.Digest == "0000000000000000" {
			t.Errorf("%s: empty scheduler digest %q", key, row.Digest)
		}
		if row.P99Us < row.P50Us {
			t.Errorf("%s: p99 %dus below p50 %dus", key, row.P99Us, row.P50Us)
		}
	}
	// The crawler class is provisioned below its demand by design; if
	// nothing throttles, admission control is not in the request path.
	last := results[len(results)-1]
	if last.throttled == 0 {
		t.Errorf("largest point recorded zero throttles — admission control inert")
	}
	var crawler *scaleTenantStat
	for i := range last.tenants {
		if last.tenants[i].name == "crawler" {
			crawler = &last.tenants[i]
		}
	}
	if crawler == nil {
		t.Fatalf("crawler tenant missing from per-tenant stats")
	}
	if crawler.throttled == 0 {
		t.Errorf("crawler throttled 0 of %d ops; want the underprovisioned class to be clipped",
			crawler.admitted)
	}
}

// TestScaleBaselineRoundTrip writes a tiny baseline and immediately
// re-checks it: a freshly measured baseline must hold.
func TestScaleBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	opts := Options{Tiny: true, Seed: 1, Out: io.Discard}
	cur, _ := ScaleMeasure(opts)
	if err := writeBaselineFile(path, cur); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	if err := CheckScaleBaseline(path, opts); err != nil {
		t.Fatalf("fresh baseline did not hold: %v", err)
	}
}

// TestScaleBaselineCatchesDrift is the sabotage proof for the gate:
// corrupting any committed invariant must fail the check.
func TestScaleBaselineCatchesDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	opts := Options{Tiny: true, Seed: 1, Out: io.Discard}
	cur, _ := ScaleMeasure(opts)
	if err := writeBaselineFile(path, cur); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b ScaleBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	sabotage := map[string]func(r *ScaleRow){
		"ops":    func(r *ScaleRow) { r.Ops++ },
		"digest": func(r *ScaleRow) { r.Digest = "deadbeefdeadbeef" },
		"p99":    func(r *ScaleRow) { r.P99Us += 17 },
		"shards": func(r *ScaleRow) { r.Shards++ },
	}
	for name, corrupt := range sabotage {
		mutated := ScaleBaseline{Schema: b.Schema, Mode: b.Mode, Seed: b.Seed,
			Rows: make(map[string]*ScaleRow, len(b.Rows))}
		for key, row := range b.Rows {
			cp := *row
			mutated.Rows[key] = &cp
		}
		for _, row := range mutated.Rows {
			corrupt(row)
			break
		}
		out, err := json.Marshal(&mutated)
		if err != nil {
			t.Fatalf("marshal mutated baseline: %v", err)
		}
		mpath := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(mpath, out, 0o644); err != nil {
			t.Fatalf("write mutated baseline: %v", err)
		}
		if err := CheckScaleBaseline(mpath, opts); err == nil {
			t.Errorf("%s corruption went undetected", name)
		} else if !strings.Contains(err.Error(), "scale baseline") &&
			!strings.Contains(err.Error(), "baseline") {
			t.Errorf("%s corruption produced an unhelpful error: %v", name, err)
		}
	}
}

// TestScaleBaselineRejectsBadSchema checks the regenerate hint on a
// schema mismatch.
func TestScaleBaselineRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.json")
	doc := `{"schema":"lambdafs-scale-baseline/v0","mode":"tiny","seed":1,"rows":{}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := CheckScaleBaseline(path, Options{Tiny: true, Seed: 1})
	if err == nil {
		t.Fatalf("stale schema accepted")
	}
	if !strings.Contains(err.Error(), "-baseline scale") {
		t.Fatalf("error lacks the regenerate hint: %v", err)
	}
}
