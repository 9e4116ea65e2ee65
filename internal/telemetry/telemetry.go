// Package telemetry is the unified metrics plane for λFS: a
// concurrency-safe registry of named, labeled instruments that every
// subsystem (ndb, faas, rpc, core, coordinator, bench) registers into.
//
// The package deliberately mirrors the Prometheus data model — counters,
// gauges, and histograms identified by a metric name plus a sorted label
// set — but stays dependency-free and virtual-time aware: scraping
// (scrape.go) runs on a *clock.Sim ticker so simulated runs produce the
// same series shape as scaled-time runs, and exposition (expo.go) renders
// the registry as Prometheus text or JSON.
//
// Naming convention: lambdafs_<subsystem>_<metric>, with counters
// suffixed _total (e.g. lambdafs_ndb_lock_waits_total,
// lambdafs_faas_active_instances).
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every instrument method on a nil receiver is a no-op. Subsystems can
// therefore instrument hot paths unconditionally and pay nothing when
// telemetry is not wired up.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/metrics"
)

// Kind discriminates instrument types in Gather output.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Label is one key=value dimension of an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// labelString renders a sorted label set as {k1="v1",k2="v2"}, or "" when
// empty. The rendering doubles as the registry key suffix and the
// Prometheus exposition form, which is what pins a stable ordering for
// the golden test.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return s + "}"
}

func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter is a monotonically increasing float64, safe for concurrent use.
// The value is stored as IEEE-754 bits in an atomic word; Add loops on
// compare-and-swap so hot paths never take a lock.
type Counter struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v < 0 is ignored: counters are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value. It is either settable (Set /
// Add from hot paths) or callback-backed (registered via
// Registry.GaugeFunc, sampled at Gather/scrape time). The callback, when
// present, wins; it must be safe to call from the scraper goroutine
// without holding the owning subsystem's locks.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
	fn     func() float64 // immutable after registration
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current reading (callback value for func-backed
// gauges).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records durations. It is the registry's named, nil-safe
// handle on a metrics.Histogram (log-bucketed, internally locked), exposed
// as a Prometheus-style summary (quantiles + _sum + _count).
type Histogram struct {
	name   string
	labels []Label
	h      *metrics.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.h.Observe(d)
}

// Snapshot returns the observations so far as one consistent value (empty
// on a nil handle).
func (h *Histogram) Snapshot() metrics.HistSnapshot {
	if h == nil {
		return metrics.HistSnapshot{}
	}
	return h.h.Snapshot()
}

// Metric is one gathered instrument reading.
type Metric struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Counter / gauge reading.
	Value float64

	// Hist is a histogram's one-lock snapshot. The _count, _sum and
	// quantile series of both expositions and of a scrape all derive from
	// it, so they describe the same instant.
	Hist metrics.HistSnapshot
}

// summaryQuantiles are the quantile series a histogram exposes, in
// exposition order.
var summaryQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}}

// ID returns the exposition identity name{labels}.
func (m Metric) ID() string { return m.Name + labelString(m.Labels) }

// Registry is a concurrency-safe get-or-create collection of
// instruments. Requesting the same (name, labels) twice returns the same
// instrument, so independent components (multiple engines sharing one
// EngineConfig, multiple VMs sharing one rpc.Config) transparently share
// counters. Requesting an existing name with a different instrument kind
// panics: that is a programming error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	byID map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]any)}
}

// Counter returns the counter registered under (name, labels), creating
// it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	id := name + labelString(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byID[id]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T, not counter", id, got))
		}
		return c
	}
	c := &Counter{name: name, labels: ls}
	r.byID[id] = c
	return c
}

// Gauge returns the settable gauge under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.gauge(name, nil, labels)
}

// GaugeFunc registers a callback-backed gauge. If a settable gauge
// already exists under the same identity it is upgraded to the callback;
// if a callback is already registered the existing gauge (and its
// callback) wins.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) *Gauge {
	return r.gauge(name, fn, labels)
}

func (r *Registry) gauge(name string, fn func() float64, labels []Label) *Gauge {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	id := name + labelString(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byID[id]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T, not gauge", id, got))
		}
		if fn != nil && g.fn == nil {
			// Upgrade in place: replace the entry with a func-backed gauge
			// so later Gather calls read the callback. Existing holders of
			// the settable gauge keep a working (now shadowed) instrument.
			ng := &Gauge{name: name, labels: ls, fn: fn}
			r.byID[id] = ng
			return ng
		}
		return g
	}
	g := &Gauge{name: name, labels: ls, fn: fn}
	r.byID[id] = g
	return g
}

// Histogram returns the histogram under (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ls := sortedLabels(labels)
	id := name + labelString(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byID[id]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s already registered as %T, not histogram", id, got))
		}
		return h
	}
	h := &Histogram{name: name, labels: ls, h: metrics.NewHistogram()}
	r.byID[id] = h
	return h
}

// Gather snapshots every registered instrument, sorted by (name, label
// string) for deterministic exposition. Callback gauges are invoked here;
// they must not re-enter the registry.
func (r *Registry) Gather() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	insts := make([]any, 0, len(r.byID))
	for _, v := range r.byID {
		insts = append(insts, v)
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(insts))
	for _, v := range insts {
		switch i := v.(type) {
		case *Counter:
			out = append(out, Metric{Name: i.name, Labels: i.labels, Kind: KindCounter, Value: i.Value()})
		case *Gauge:
			out = append(out, Metric{Name: i.name, Labels: i.labels, Kind: KindGauge, Value: i.Value()})
		case *Histogram:
			out = append(out, Metric{Name: i.name, Labels: i.labels, Kind: KindHistogram, Hist: i.h.Snapshot()})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return labelString(out[a].Labels) < labelString(out[b].Labels)
	})
	return out
}
