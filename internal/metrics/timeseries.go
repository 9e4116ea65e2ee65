package metrics

import (
	"sync"
	"time"
)

// Timeseries accumulates values into fixed-width time buckets (default one
// virtual second). It backs the throughput-over-time curves of Figures 8
// and 15 and the instantaneous cost series of Figure 8(c).
type Timeseries struct {
	mu     sync.Mutex
	origin time.Time
	width  time.Duration
	vals   []float64
}

// NewTimeseries returns a series bucketed at width, starting at origin.
func NewTimeseries(origin time.Time, width time.Duration) *Timeseries {
	if width <= 0 {
		width = time.Second
	}
	return &Timeseries{origin: origin, width: width}
}

func (ts *Timeseries) bucket(t time.Time) int {
	d := t.Sub(ts.origin)
	if d < 0 {
		return -1
	}
	return int(d / ts.width)
}

// Add accumulates v into the bucket containing t. Samples before the
// origin are dropped.
func (ts *Timeseries) Add(t time.Time, v float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b := ts.bucket(t)
	if b < 0 {
		return
	}
	for len(ts.vals) <= b {
		ts.vals = append(ts.vals, 0)
	}
	ts.vals[b] += v
}

// Incr is Add with v=1 — one completed operation.
func (ts *Timeseries) Incr(t time.Time) { ts.Add(t, 1) }

// Values returns a copy of the per-bucket sums.
func (ts *Timeseries) Values() []float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]float64(nil), ts.vals...)
}

// Rate returns per-bucket sums divided by the bucket width in seconds,
// i.e. ops/sec when Incr is used.
func (ts *Timeseries) Rate() []float64 {
	vals := ts.Values()
	sec := ts.width.Seconds()
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / sec
	}
	return out
}

// Total returns the sum over all buckets.
func (ts *Timeseries) Total() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var sum float64
	for _, v := range ts.vals {
		sum += v
	}
	return sum
}

// MeanRate returns the average per-second rate across all buckets
// (0 when empty).
func (ts *Timeseries) MeanRate() float64 {
	vals := ts.Rate()
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// PeakRate returns the maximum per-second rate across buckets.
func (ts *Timeseries) PeakRate() float64 {
	var peak float64
	for _, v := range ts.Rate() {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Gauge samples an instantaneous value over time (e.g. the number of
// active λFS NameNodes on Figure 8's secondary y-axis). Each bucket keeps
// the maximum sampled value.
type Gauge struct {
	mu     sync.Mutex
	origin time.Time
	width  time.Duration
	vals   []float64
	set    []bool
}

// NewGauge returns a gauge sampled into width-sized buckets from origin.
func NewGauge(origin time.Time, width time.Duration) *Gauge {
	if width <= 0 {
		width = time.Second
	}
	return &Gauge{origin: origin, width: width}
}

// Sample records v at time t; the bucket keeps the max.
func (g *Gauge) Sample(t time.Time, v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := t.Sub(g.origin)
	if d < 0 {
		return
	}
	b := int(d / g.width)
	for len(g.vals) <= b {
		g.vals = append(g.vals, 0)
		g.set = append(g.set, false)
	}
	if !g.set[b] || v > g.vals[b] {
		g.vals[b] = v
		g.set[b] = true
	}
}

// Values returns the per-bucket samples, carrying the last seen value
// forward through empty buckets.
func (g *Gauge) Values() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]float64, len(g.vals))
	var last float64
	for i := range g.vals {
		if g.set[i] {
			last = g.vals[i]
		}
		out[i] = last
	}
	return out
}

// ValuesUntil returns the per-bucket samples padded out to the bucket
// containing t, carrying the last seen value forward through empty
// buckets — including trailing ones past the final sample. Values()
// truncates at the last sampled bucket, which silently shortens a series
// whose gauge went quiet before the end of the run; exposition and the
// shell dashboard use ValuesUntil(runEnd) so the rendered series spans
// the whole experiment. Times at or before origin yield the plain
// Values() result.
func (g *Gauge) ValuesUntil(t time.Time) []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.vals)
	if d := t.Sub(g.origin); d > 0 {
		if want := int(d/g.width) + 1; want > n {
			n = want
		}
	}
	out := make([]float64, n)
	var last float64
	for i := 0; i < n; i++ {
		if i < len(g.vals) && g.set[i] {
			last = g.vals[i]
		}
		out[i] = last
	}
	return out
}

// Max returns the maximum sampled value over the gauge's lifetime.
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var max float64
	for i, v := range g.vals {
		if g.set[i] && v > max {
			max = v
		}
	}
	return max
}
