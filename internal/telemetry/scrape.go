package telemetry

import (
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
)

// Snapshot is one scrape of the registry: every instrument flattened to
// series-key → value at a single virtual-time instant. Series keys are
// the exposition identity name{labels}; histograms contribute
// <name>_count and <name>_sum series plus quantile series
// <name>{quantile="0.5"} etc. (merged with any instrument labels).
// Hists carries each non-empty histogram's snapshot under its identity
// name{labels} — the distribution those flattened series were derived
// from, for consumers (the SLO engine) that subtract and merge
// snapshots rather than read lifetime quantiles.
type Snapshot struct {
	Time   time.Time
	Values map[string]float64
	Hists  map[string]metrics.HistSnapshot
}

// VirtualUS returns the snapshot time as microseconds since clock.Epoch,
// matching the t_us convention of the trace JSONL stream.
func (s Snapshot) VirtualUS() int64 { return s.Time.Sub(clock.Epoch).Microseconds() }

func (s *Snapshot) flatten(ms []Metric) {
	s.Values = make(map[string]float64)
	for _, m := range ms {
		switch m.Kind {
		case KindCounter, KindGauge:
			s.Values[m.ID()] = m.Value
		case KindHistogram:
			ls := labelString(m.Labels)
			s.Values[m.Name+"_count"+ls] = float64(m.Hist.Count)
			s.Values[m.Name+"_sum"+ls] = m.Hist.Sum.Seconds()
			for _, sq := range summaryQuantiles {
				ql := labelString(append(append([]Label(nil), m.Labels...), L("quantile", sq.label)))
				s.Values[m.Name+ql] = m.Hist.Quantile(sq.q).Seconds()
			}
			if m.Hist.Count > 0 {
				if s.Hists == nil {
					s.Hists = make(map[string]metrics.HistSnapshot)
				}
				s.Hists[m.ID()] = m.Hist
			}
		}
	}
}

// Scraper snapshots a registry on a virtual-time ticker into an
// append-only series. It follows the same clock discipline as every
// other background loop in the repo (clock.GoDaemon + clock.SleepOr on a
// stop event): it ticks in its turn and only while somebody else keeps
// time moving.
type Scraper struct {
	clk      *clock.Sim
	reg      *Registry
	interval time.Duration // fixed at construction

	mu         sync.Mutex
	snaps      []Snapshot
	onSnap     []func(Snapshot)
	hookPanics uint64
	stop, done *clock.Event // nil until Start
}

// NewScraper builds a scraper over reg ticking every interval (default
// 1s). Call Start to begin scraping.
func NewScraper(clk *clock.Sim, reg *Registry, interval time.Duration) *Scraper {
	if interval <= 0 {
		interval = time.Second
	}
	return &Scraper{clk: clk, reg: reg, interval: interval}
}

// OnSnapshot registers fn to be called (on the scraper goroutine) after
// every scrape, including manual ScrapeNow calls. Multiple subscribers
// may register; they are invoked in registration order. A panic in one
// subscriber is recovered and counted (HookPanics) without affecting
// the other subscribers or the scrape loop. Used to feed the flight
// recorder, the SLO engine, and live dashboards.
func (s *Scraper) OnSnapshot(fn func(Snapshot)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.onSnap = append(s.onSnap, fn)
	s.mu.Unlock()
}

// HookPanics reports how many OnSnapshot subscriber invocations panicked
// (each recovered and isolated to that subscriber).
func (s *Scraper) HookPanics() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hookPanics
}

// ScrapeNow takes an immediate snapshot, appends it to the series, and
// returns it.
func (s *Scraper) ScrapeNow() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	snap := Snapshot{Time: s.clk.Now()}
	snap.flatten(s.reg.Gather())
	s.mu.Lock()
	s.snaps = append(s.snaps, snap)
	fns := append([]func(Snapshot){}, s.onSnap...)
	s.mu.Unlock()
	for _, fn := range fns {
		s.invoke(fn, snap)
	}
	return snap
}

// invoke runs one subscriber, recovering (and counting) a panic so a
// broken dashboard hook cannot take down the scrape loop or starve the
// other subscribers.
func (s *Scraper) invoke(fn func(Snapshot), snap Snapshot) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.hookPanics++
			s.mu.Unlock()
		}
	}()
	fn(snap)
}

// Start launches the scrape loop. Stop terminates it.
func (s *Scraper) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop, done := clock.NewEvent(s.clk), clock.NewEvent(s.clk)
	s.stop, s.done = stop, done
	s.mu.Unlock()
	clock.GoDaemon(s.clk, func() { s.loop(stop, done) })
}

func (s *Scraper) loop(stop, done *clock.Event) {
	defer done.Set()
	for {
		if !clock.SleepOr(s.clk, s.interval, stop) {
			return
		}
		s.ScrapeNow()
	}
}

// Stop halts the scrape loop and waits for it to exit. Safe to call
// multiple times and on a never-started scraper.
func (s *Scraper) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	stop.Set()
	// Run registers the caller with the clock for the wait.
	clock.Run(s.clk, done.Wait)
}

// Snapshots returns a copy of the accumulated series, in scrape order.
func (s *Scraper) Snapshots() []Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Snapshot(nil), s.snaps...)
}

// Series extracts one flattened series key across all snapshots,
// carrying absent values as 0.
func (s *Scraper) Series(key string) []float64 {
	snaps := s.Snapshots()
	out := make([]float64, len(snaps))
	for i, sn := range snaps {
		out[i] = sn.Values[key]
	}
	return out
}
