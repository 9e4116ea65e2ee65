// Package metrics provides the measurement substrate for the λFS
// reproduction: latency histograms with quantile/CDF export, per-second
// throughput timeseries, and the monetary cost models used by the paper's
// evaluation (AWS Lambda pay-per-use, a "simplified" provisioned-time
// model, and serverful VM billing).
//
// All durations recorded here are *virtual* durations (see internal/clock);
// the harness reports them in paper-equivalent units.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram is a concurrency-safe log-bucketed latency histogram. Buckets
// grow geometrically from 1µs to ~5 minutes, giving <5% relative error per
// bucket, which is ample for CDF reproduction. It is the repo's one
// quantile structure: every reader that needs more than one number of the
// same instant takes a Snapshot.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

const (
	histMin    = time.Microsecond
	histGrowth = 1.05
	histBucket = 400 // 1µs * 1.05^400 ≈ 5 minutes
)

var histBounds = func() []time.Duration {
	b := make([]time.Duration, histBucket)
	v := float64(histMin)
	for i := range b {
		b[i] = time.Duration(v)
		v *= histGrowth
	}
	return b
}()

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBucket+1)}
}

func bucketFor(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histMin)) / math.Log(histGrowth))
	if i < 0 {
		i = 0
	}
	// Samples beyond the last bound (~5 minutes) go to the overflow bucket;
	// without the clamp the raw log index would run past the counts slice.
	if i > histBucket {
		return histBucket
	}
	// Log arithmetic can land one bucket low; fix up.
	for i < histBucket && histBounds[i] < d {
		i++
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketFor(d)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket containing it. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// HistBucket is one non-empty bucket of a HistSnapshot.
type HistBucket struct {
	Index int // position in the shared bucket layout; the last one is the overflow bucket
	Count uint64
}

// HistSnapshot is a value copy of a Histogram taken under one lock, so its
// buckets, count, sum and max describe the same instant. Only non-empty
// buckets are stored (ascending Index): an idle histogram snapshots to
// four words. Snapshots share the Histogram's bucket layout, so Merge and
// Sub are exact at bucket granularity and Quantile answers as the live
// histogram would.
type HistSnapshot struct {
	Buckets []HistBucket
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.total, Sum: h.sum, Max: h.max}
	if h.total == 0 {
		return s
	}
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	s.Buckets = make([]HistBucket, 0, n)
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Index: i, Count: c})
		}
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper bound of the
// bucket containing it; in the overflow bucket, where there is no bound,
// it reports Max. Returns 0 when the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.Index >= histBucket {
				return s.Max
			}
			return histBounds[b.Index]
		}
	}
	return s.Max
}

// Merge returns the snapshot of the union of both sample sets: what one
// histogram fed s's and o's samples would snapshot to.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	a, b := s.Buckets, o.Buckets
	out.Buckets = make([]HistBucket, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Index < b[0].Index:
			out.Buckets, a = append(out.Buckets, a[0]), a[1:]
		case b[0].Index < a[0].Index:
			out.Buckets, b = append(out.Buckets, b[0]), b[1:]
		default:
			out.Buckets = append(out.Buckets, HistBucket{Index: a[0].Index, Count: a[0].Count + b[0].Count})
			a, b = a[1:], b[1:]
		}
	}
	out.Buckets = append(append(out.Buckets, a...), b...)
	return out
}

// Sub returns the samples observed after old was taken, where old is an
// earlier snapshot of the same histogram (or a Merge of earlier snapshots
// of the same histograms): the difference has the buckets, count and sum
// of a histogram fed only the later samples. Max cannot be subtracted and
// stays s.Max, so a quantile that lands in the overflow bucket reports
// the newer snapshot's maximum. Where old holds more than s — two
// concurrent scrapes delivered out of order — the difference saturates at
// empty instead of wrapping.
func (s HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	out := HistSnapshot{Max: s.Max}
	if s.Sum > old.Sum {
		out.Sum = s.Sum - old.Sum
	}
	o := old.Buckets
	for _, b := range s.Buckets {
		for len(o) > 0 && o[0].Index < b.Index {
			o = o[1:]
		}
		if len(o) > 0 && o[0].Index == b.Index {
			if o[0].Count >= b.Count {
				continue
			}
			b.Count -= o[0].Count
		}
		out.Buckets = append(out.Buckets, b)
		out.Count += b.Count
	}
	return out
}

// MovingWindow keeps the most recent N duration samples and answers their
// mean. λFS clients use it for straggler mitigation and anti-thrashing
// decisions (Appendices B and C).
type MovingWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

// NewMovingWindow returns a window holding size samples.
func NewMovingWindow(size int) *MovingWindow {
	if size <= 0 {
		size = 1
	}
	return &MovingWindow{buf: make([]time.Duration, size)}
}

// Add records a sample, evicting the oldest when full.
func (w *MovingWindow) Add(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
	w.mu.Unlock()
}

// Mean returns the average of the samples currently in the window, or 0
// when empty.
func (w *MovingWindow) Mean() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	return sum / time.Duration(n)
}

// Len reports how many samples the window currently holds.
func (w *MovingWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Percentile computes the p-percentile of raw duration samples (used by
// tests and small offline analyses; the Histogram is preferred online).
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
