package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lambdafs/internal/clock"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	h.Observe(1 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got := h.Mean(); got != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", got)
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramQuantileApproximate(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Millisecond || p50 > 550*time.Millisecond {
		t.Fatalf("p50 = %v, want ~500ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~990ms", p99)
	}
}

func TestHistogramQuantileWithinBucketError(t *testing.T) {
	// Property: the reported quantile of a constant distribution is within
	// one bucket growth factor of the constant.
	f := func(raw uint32) bool {
		d := time.Duration(raw%1_000_000+1) * time.Microsecond
		h := NewHistogram()
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
		q := h.Quantile(0.5)
		lo := float64(d) / histGrowth
		hi := float64(d) * histGrowth
		return float64(q) >= lo && float64(q) <= hi*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileAdversarial feeds the distributions a bucketed
// estimator is worst at and checks every quantile against the exact
// Percentile reference: the documented bound is one bucket, i.e. a
// relative error of at most histGrowth-1 = 5% (absolute floor histMin for
// values in the first bucket).
func TestHistogramQuantileAdversarial(t *testing.T) {
	repeat := func(d time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	ramp := make([]time.Duration, 10000)
	for i := range ramp {
		ramp[i] = time.Millisecond + time.Duration(i)*(time.Second-time.Millisecond)/time.Duration(len(ramp)-1)
	}
	tails := []float64{0.01, 0.5, 0.95, 0.99, 0.999}
	cases := []struct {
		name    string
		samples []time.Duration
		qs      []float64
	}{
		{"point mass 1µs", repeat(time.Microsecond, 1000), tails},
		{"point mass 37µs", repeat(37*time.Microsecond, 1000), tails},
		{"point mass 1ms", repeat(time.Millisecond, 1000), tails},
		{"point mass 250ms", repeat(250*time.Millisecond, 1000), tails},
		{"point mass 10s", repeat(10*time.Second, 1000), tails},
		// 100× separation: quantiles on either side of the split must snap
		// to the right mode, which a 5% bucket error cannot blur.
		{"bimodal 1ms/100ms", append(repeat(time.Millisecond, 500), repeat(100*time.Millisecond, 500)...),
			[]float64{0.05, 0.25, 0.45, 0.55, 0.75, 0.99}},
		{"monotone ramp 1ms..1s", ramp, []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}},
	}
	for _, tc := range cases {
		h := NewHistogram()
		for _, d := range tc.samples {
			h.Observe(d)
		}
		for _, q := range tc.qs {
			got, want := h.Quantile(q), Percentile(tc.samples, q*100)
			tol := time.Duration(float64(want) * (histGrowth - 1))
			if tol < histMin {
				tol = histMin
			}
			if got < want-tol || got > want+tol {
				t.Errorf("%s q%g: got %v want %v (tolerance %v)", tc.name, q, got, want, tol)
			}
		}
	}
}

// sameSamples reports whether two snapshots hold the same buckets, count
// and sum (Max is compared by the callers: Sub documents it separately).
func sameSamples(a, b HistSnapshot) bool {
	if a.Count != b.Count || a.Sum != b.Sum || len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

func TestSnapshotMergeIsExact(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Millisecond)
	b.Observe(5 * time.Millisecond)
	b.Observe(10 * time.Millisecond)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 3 || m.Sum != 16*time.Millisecond || m.Max != 10*time.Millisecond {
		t.Fatalf("merged count/sum/max = %d/%v/%v", m.Count, m.Sum, m.Max)
	}
	// Merging an empty snapshot is a no-op, from either side.
	var empty HistSnapshot
	if !sameSamples(m.Merge(empty), m) || !sameSamples(empty.Merge(m), m) {
		t.Fatal("merge with empty changed the snapshot")
	}

	// Merging k shards is bucket-identical to one histogram over the
	// union — the property that lets the SLO engine fold label sets and
	// lets a window be a difference of cumulative snapshots.
	whole := NewHistogram()
	shards := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 3000; i++ {
		d := time.Duration(10e3 * math.Pow(1.003, float64(i%2000))) // 10µs .. ~4ms
		whole.Observe(d)
		shards[i%3].Observe(d)
	}
	var merged HistSnapshot
	for _, s := range shards {
		merged = merged.Merge(s.Snapshot())
	}
	if want := whole.Snapshot(); !sameSamples(merged, want) || merged.Max != want.Max {
		t.Fatalf("merged shards differ from the whole: %+v vs %+v", merged, want)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q%g: merged %v != whole %v", q, got, want)
		}
	}
}

// TestSnapshotSubIsLaterSamples pins the subtraction property: for sample
// sets A then B fed to one histogram, snapshot(A∪B).Sub(snapshot(A)) has
// the bucket counts, count and sum of a histogram fed B alone.
func TestSnapshotSubIsLaterSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	both, onlyB := NewHistogram(), NewHistogram()
	// A spans 1µs..10ms, B 1ms..1s: some buckets only A fills (they must
	// vanish from the difference), some only B, some both.
	for i := 0; i < 4000; i++ {
		both.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
	}
	both.Observe(7 * time.Hour) // overflow bucket, in A only
	snapA := both.Snapshot()
	for i := 0; i < 1500; i++ {
		d := time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))
		both.Observe(d)
		onlyB.Observe(d)
	}
	snapAB := both.Snapshot()
	diff := snapAB.Sub(snapA)
	if want := onlyB.Snapshot(); !sameSamples(diff, want) {
		t.Fatalf("difference is not B alone:\n got %+v\nwant %+v", diff, want)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got, want := diff.Quantile(q), onlyB.Quantile(q); got != want {
			t.Errorf("q%g: difference %v != B alone %v", q, got, want)
		}
	}
	// Max is not subtractable: the difference keeps the newer snapshot's.
	if diff.Max != snapAB.Max {
		t.Fatalf("difference max = %v, want the newer snapshot's %v", diff.Max, snapAB.Max)
	}
	// Nothing later than itself, and — out-of-order arguments — nothing
	// later than a newer snapshot: empty, never a wrapped count.
	for _, d := range []HistSnapshot{snapAB.Sub(snapAB), snapA.Sub(snapAB)} {
		if d.Count != 0 || d.Sum != 0 || len(d.Buckets) != 0 || d.Quantile(0.99) != 0 {
			t.Fatalf("difference is not empty: %+v", d)
		}
	}
}

func TestMovingWindow(t *testing.T) {
	w := NewMovingWindow(3)
	if w.Mean() != 0 || w.Len() != 0 {
		t.Fatal("fresh window not empty")
	}
	w.Add(1 * time.Millisecond)
	w.Add(2 * time.Millisecond)
	if got := w.Mean(); got != 1500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	w.Add(3 * time.Millisecond)
	w.Add(30 * time.Millisecond) // evicts the 1ms sample
	if got := w.Mean(); got != (2+3+30)*time.Millisecond/3 {
		t.Fatalf("windowed mean = %v", got)
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
}

// TestMovingWindowMeanMatchesDefinition holds the running sum to the O(n)
// definition, the mean of the last min(added, size) samples, after every
// Add into windows of random sizes.
func TestMovingWindowMeanMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(40)
		w := NewMovingWindow(size)
		var added []time.Duration
		for i := 0; i < 3*size; i++ {
			d := time.Duration(rng.Int63n(int64(time.Second)))
			w.Add(d)
			added = append(added, d)
			last := added[max(0, len(added)-size):]
			var sum time.Duration
			for _, s := range last {
				sum += s
			}
			if got, want := w.Mean(), sum/time.Duration(len(last)); got != want {
				t.Fatalf("size %d after %d adds: mean %v, want %v", size, len(added), got, want)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(s, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(s, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestTimeseriesRates(t *testing.T) {
	origin := clock.Epoch
	ts := NewTimeseries(origin)
	for i := 0; i < 10; i++ {
		ts.Incr(origin.Add(500 * time.Millisecond))
	}
	for i := 0; i < 20; i++ {
		ts.Incr(origin.Add(1500 * time.Millisecond))
	}
	rate := ts.Rate()
	if len(rate) != 2 || rate[0] != 10 || rate[1] != 20 {
		t.Fatalf("rate = %v", rate)
	}
	if ts.Total() != 30 {
		t.Fatalf("total = %v", ts.Total())
	}
	if ts.PeakRate() != 20 {
		t.Fatalf("peak = %v", ts.PeakRate())
	}
	if ts.MeanRate() != 15 {
		t.Fatalf("mean rate = %v", ts.MeanRate())
	}
}

func TestTimeseriesDropsPreOrigin(t *testing.T) {
	ts := NewTimeseries(clock.Epoch)
	ts.Incr(clock.Epoch.Add(-time.Second))
	if ts.Total() != 0 {
		t.Fatal("pre-origin sample was recorded")
	}
}

func TestGaugeCarriesForward(t *testing.T) {
	g := NewGauge()
	g.Sample(clock.Epoch, 5)
	g.Sample(clock.Epoch.Add(3*time.Second), 9)
	g.Sample(clock.Epoch.Add(3*time.Second+100*time.Millisecond), 7) // bucket keeps max
	vals := g.Values()
	want := []float64{5, 5, 5, 9}
	if len(vals) != len(want) {
		t.Fatalf("values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
	if g.Max() != 9 {
		t.Fatalf("max = %v", g.Max())
	}
}

func TestGaugeValuesUntilPadsToNow(t *testing.T) {
	g := NewGauge()
	g.Sample(clock.Epoch, 5)
	g.Sample(clock.Epoch.Add(2*time.Second), 9)
	// The run keeps going for four more seconds after the gauge's last
	// sample; Values() truncates at bucket 2, ValuesUntil(runEnd) carries
	// 9 forward so the rendered series spans the whole run.
	if vals := g.Values(); len(vals) != 3 {
		t.Fatalf("Values() = %v, want 3 buckets", vals)
	}
	vals := g.ValuesUntil(clock.Epoch.Add(6*time.Second + 500*time.Millisecond))
	want := []float64{5, 5, 9, 9, 9, 9, 9}
	if len(vals) != len(want) {
		t.Fatalf("ValuesUntil = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("ValuesUntil = %v, want %v", vals, want)
		}
	}
	// A time at or before the last sampled bucket degrades to Values().
	if vals := g.ValuesUntil(clock.Epoch.Add(time.Second)); len(vals) != 3 {
		t.Fatalf("ValuesUntil(past) = %v, want plain Values() length 3", vals)
	}
	// And on a never-sampled gauge it still pads with zeros.
	empty := NewGauge()
	if vals := empty.ValuesUntil(clock.Epoch.Add(2 * time.Second)); len(vals) != 3 {
		t.Fatalf("empty ValuesUntil = %v, want 3 zero buckets", vals)
	}
}

func TestLambdaMeterBilling(t *testing.T) {
	m := NewLambdaMeter(clock.Epoch)
	m.BillActive(clock.Epoch, time.Second, 6) // 6 GB-seconds
	want := 6 * LambdaGBSecondUSD
	if got := m.TotalUSD(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", got, want)
	}
	m.BillRequest(clock.Epoch)
	if got := m.TotalUSD(); math.Abs(got-want-LambdaPerRequestUSD) > 1e-12 {
		t.Fatalf("total after request = %v", got)
	}
	if m.Requests() != 1 {
		t.Fatalf("requests = %d", m.Requests())
	}
}

func TestLambdaMeterRoundsUpToMillisecond(t *testing.T) {
	m := NewLambdaMeter(clock.Epoch)
	m.BillActive(clock.Epoch, 100*time.Microsecond, 1)
	// 100µs rounds to the 1ms minimum.
	want := 0.001 * LambdaGBSecondUSD
	if got := m.TotalUSD(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

func TestCumulativeCostMonotone(t *testing.T) {
	m := NewLambdaMeter(clock.Epoch)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		at := clock.Epoch.Add(time.Duration(rng.Intn(60)) * time.Second)
		m.BillActive(at, time.Duration(rng.Intn(100))*time.Millisecond, 6)
	}
	cum := m.CumulativeUSD()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative cost decreased at %d", i)
		}
	}
}

func TestProvisionedMeter(t *testing.T) {
	m := NewProvisionedMeter(clock.Epoch)
	m.BillProvisioned(clock.Epoch, 10*time.Second, 6)
	want := 60 * LambdaGBSecondUSD
	if got := m.TotalUSD(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

func TestVMCostMatchesPaper(t *testing.T) {
	// The paper reports $2.50 for 512 vCPUs over the 300-second workload.
	got := VMCost(512, 300*time.Second)
	if math.Abs(got-2.50) > 1e-9 {
		t.Fatalf("512 vCPU × 300s = $%v, want $2.50", got)
	}
}

func TestPerfPerCost(t *testing.T) {
	if PerfPerCost(100, 0) != 0 {
		t.Fatal("zero cost should yield 0")
	}
	if got := PerfPerCost(100, 0.5); got != 200 {
		t.Fatalf("ppc = %v", got)
	}
	s := PerfPerCostSeries([]float64{10, 20, 30}, []float64{1, 2})
	if len(s) != 2 || s[0] != 10 || s[1] != 10 {
		t.Fatalf("series = %v", s)
	}
}

// TestBucketForBoundaries pins down the log-arithmetic fix-up in
// bucketFor: exact bucket upper bounds must land in their own bucket, one
// nanosecond more must land in the next, and samples beyond the last bound
// (~5 minutes) must fall into the overflow bucket, where quantiles degrade to the
// observed max.
func TestBucketForBoundaries(t *testing.T) {
	if bucketFor(0) != 0 || bucketFor(histMin) != 0 {
		t.Fatalf("minimum bucket: bucketFor(0)=%d bucketFor(histMin)=%d",
			bucketFor(0), bucketFor(histMin))
	}
	for i, bound := range histBounds {
		if got := bucketFor(bound); got != i {
			t.Fatalf("bucketFor(bound %d = %v) = %d", i, bound, got)
		}
		if got := bucketFor(bound + 1); got != i+1 {
			t.Fatalf("bucketFor(bound %d + 1ns) = %d, want %d", i, got, i+1)
		}
	}
	// Beyond the last bound everything lands in the overflow bucket.
	over := []time.Duration{histBounds[histBucket-1] + 1, 6 * time.Hour, 24 * time.Hour}
	for _, d := range over {
		if got := bucketFor(d); got != histBucket {
			t.Fatalf("bucketFor(%v) = %d, want overflow %d", d, got, histBucket)
		}
	}
	// Monotonicity across a sweep of magnitudes.
	prev := -1
	for d := time.Duration(1); d < 10*time.Hour; d = d*3 + 7 {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor not monotone at %v: %d < %d", d, b, prev)
		}
		prev = b
	}
	// Overflow samples: quantiles report the observed max rather than a
	// (nonexistent) bucket bound.
	h := NewHistogram()
	h.Observe(6 * time.Hour)
	h.Observe(7 * time.Hour)
	if got := h.Quantile(0.99); got != 7*time.Hour {
		t.Fatalf("overflow quantile = %v, want observed max 7h", got)
	}
	if h.Max() != 7*time.Hour || h.Count() != 2 {
		t.Fatalf("overflow stats: max=%v count=%d", h.Max(), h.Count())
	}
}
