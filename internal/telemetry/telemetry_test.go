package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lambdafs_test_ops_total")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestGaugeSetAddAndFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lambdafs_test_depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	f := r.GaugeFunc("lambdafs_test_fn", func() float64 { return 42 })
	if got := f.Value(); got != 42 {
		t.Fatalf("gauge func = %v, want 42", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lambdafs_test_latency_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d", snap.Count)
	}
	if q := snap.Quantile(0.5); q <= 0 {
		t.Fatalf("q50 = %v", q)
	}
}

// TestHistogramSumExact pins the exported _sum to the exact sum of the
// observations: it used to be rebuilt as mean × count with the mean
// truncated to whole nanoseconds, which turned 1+1+2 ns into 3 ns.
func TestHistogramSumExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lambdafs_test_latency_seconds")
	for _, d := range []time.Duration{1, 1, 2} {
		h.Observe(d)
	}
	snap := NewScraper(simtest.New(t), r, 0).ScrapeNow()
	if got := snap.Values["lambdafs_test_latency_seconds_sum"]; got != 4e-9 {
		t.Fatalf("_sum = %g, want 4e-09", got)
	}
	if got := snap.Values["lambdafs_test_latency_seconds_count"]; got != 3 {
		t.Fatalf("_count = %g, want 3", got)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lambdafs_test_latency_seconds_sum 4e-09\n") {
		t.Fatalf("Prometheus exposition lacks the exact sum:\n%s", sb.String())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("shard", "1"))
	b := r.Counter("x_total", L("shard", "1"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", L("shard", "2"))
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	// Label order must not matter.
	g1 := r.Gauge("y", L("b", "2"), L("a", "1"))
	g2 := r.Gauge("y", L("a", "1"), L("b", "2"))
	if g1 != g2 {
		t.Fatal("label order must not affect identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("z_total")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := r.Gauge("b")
	g.Set(1)
	g.Add(1)
	_ = g.Value()
	gf := r.GaugeFunc("bf", func() float64 { return 1 })
	_ = gf.Value()
	h := r.Histogram("c")
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
	if r.Gather() != nil {
		t.Fatal("nil registry must gather nil")
	}
	var sc *Scraper
	sc.Start()
	sc.ScrapeNow()
	sc.Stop()
	_ = sc.Snapshots()
	var fr *FlightRecorder
	fr.RecordEvent(eventAt(time.Time{}))
	fr.RecordSnapshot(Snapshot{})
	_ = fr.Events()
	_ = fr.Snapshots()
	if err := fr.DumpJSONL(nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total")
	r.Counter("a_total", L("x", "2"))
	r.Counter("a_total", L("x", "1"))
	r.Gauge("c")
	ms := r.Gather()
	want := []string{`a_total{x="1"}`, `a_total{x="2"}`, "b_total", "c"}
	if len(ms) != len(want) {
		t.Fatalf("gathered %d metrics, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.ID() != want[i] {
			t.Fatalf("gather[%d] = %s, want %s", i, m.ID(), want[i])
		}
	}
}

// TestScraperOnSimClock drives a scraper on the DES clock and checks the
// series it accumulates is chronological with nondecreasing counter
// readings.
func TestScraperOnSimClock(t *testing.T) {
	clk := simtest.New(t)
	r := NewRegistry()
	c := r.Counter("lambdafs_test_ticks_total")
	sc := NewScraper(clk, r, time.Second)
	sc.Start()
	clock.Run(clk, func() {
		for i := 0; i < 5; i++ {
			c.Inc()
			clk.Sleep(time.Second)
		}
	})
	final := sc.ScrapeNow()
	sc.Stop()
	if got := final.Values["lambdafs_test_ticks_total"]; got != 5 {
		t.Fatalf("final counter = %v, want 5", got)
	}
	snaps := sc.Snapshots()
	if len(snaps) < 4 {
		t.Fatalf("expected >= 4 snapshots, got %d", len(snaps))
	}
	prev := snaps[0]
	for _, s := range snaps[1:] {
		if s.Time.Before(prev.Time) {
			t.Fatalf("snapshots out of order: %v then %v", prev.Time, s.Time)
		}
		if s.Values["lambdafs_test_ticks_total"] < prev.Values["lambdafs_test_ticks_total"] {
			t.Fatal("counter series must be nondecreasing")
		}
		prev = s
	}
}

// TestConcurrentScrapeAndUpdate is the -race stress test from the issue:
// hot-path updates race against Gather/exposition/scrapes. Every
// gathered histogram must be one consistent instant: its buckets add up
// to its count, and the scrape's flattened _count says the same.
func TestConcurrentScrapeAndUpdate(t *testing.T) {
	clk := simtest.New(t)
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("stress_ops_total", L("worker", fmt.Sprint(i)))
			g := r.Gauge("stress_depth", L("worker", fmt.Sprint(i)))
			h := r.Histogram("stress_latency_seconds")
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(j % 100))
				h.Observe(time.Duration(j%1000) * time.Microsecond)
			}
		}(i)
	}
	sc := NewScraper(clk, r, time.Millisecond)
	var snapMu sync.Mutex
	var seen int
	sc.OnSnapshot(func(Snapshot) { snapMu.Lock(); seen++; snapMu.Unlock() })
	sc.Start()
	clock.Go(clk, func() { clk.Sleep(100 * time.Millisecond) }) // the loop ticks while somebody waits
	for k := 0; k < 50; k++ {
		var sb writerCounter
		if err := WritePrometheus(&sb, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&sb, r); err != nil {
			t.Fatal(err)
		}
		for _, m := range r.Gather() {
			var inBuckets uint64
			for _, b := range m.Hist.Buckets {
				inBuckets += b.Count
			}
			if inBuckets != m.Hist.Count {
				t.Fatalf("%s gathered torn: buckets hold %d samples, count says %d", m.ID(), inBuckets, m.Hist.Count)
			}
		}
		snap := sc.ScrapeNow()
		hs := snap.Hists["stress_latency_seconds"]
		if got := snap.Values["stress_latency_seconds_count"]; got != float64(hs.Count) {
			t.Fatalf("scrape torn: _count %g beside a snapshot of %d samples", got, hs.Count)
		}
	}
	sc.Stop()
	close(stop)
	wg.Wait()
	if len(sc.Snapshots()) < 50 {
		t.Fatalf("expected >= 50 snapshots, got %d", len(sc.Snapshots()))
	}
	snapMu.Lock()
	defer snapMu.Unlock()
	if seen < 50 {
		t.Fatalf("OnSnapshot saw %d snapshots, want >= 50", seen)
	}
}

// writerCounter is a trivial io.Writer that discards bytes (a sink for
// exposition output under stress).
type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestHistogramQuantileEdges pins the summary's edge behavior: extreme
// quantiles on a populated histogram bracket the observed range, and an
// empty histogram answers 0 everywhere — including through Gather and
// both exposition formats — rather than panicking.
func TestHistogramQuantileEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edges_seconds")
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(d)
	}
	hs := h.Snapshot()
	q0, q1 := hs.Quantile(0), hs.Quantile(1)
	if q0 <= 0 || q0 > 2*time.Millisecond {
		t.Errorf("Quantile(0) = %v, want ~1ms (smallest observation's bucket)", q0)
	}
	if q1 < 100*time.Millisecond || q1 > 110*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want ~100ms (largest observation's bucket)", q1)
	}
	if q0 > hs.Quantile(0.5) || hs.Quantile(0.5) > q1 {
		t.Errorf("quantiles not monotonic: q0=%v q50=%v q1=%v", q0, hs.Quantile(0.5), q1)
	}

	empty := reg.Histogram("empty_seconds")
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Snapshot().Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if n := empty.Snapshot().Count; n != 0 {
		t.Errorf("empty Count = %d", n)
	}

	// The whole exposition path must survive an observation-free summary.
	var found bool
	for _, m := range reg.Gather() {
		if m.Name != "empty_seconds" {
			continue
		}
		found = true
		if m.Hist.Count != 0 || m.Hist.Sum != 0 || m.Hist.Quantile(0.5) != 0 || m.Hist.Quantile(0.99) != 0 {
			t.Errorf("empty summary gathered as %+v, want all zeros", m)
		}
	}
	if !found {
		t.Fatal("empty_seconds missing from Gather")
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatalf("WritePrometheus with empty summary: %v", err)
	}
	if !strings.Contains(sb.String(), "empty_seconds_count 0") {
		t.Errorf("Prometheus exposition lacks empty summary count:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteJSON(&sb, reg); err != nil {
		t.Fatalf("WriteJSON with empty summary: %v", err)
	}
}
