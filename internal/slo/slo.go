// Package slo is the streaming analytics and alerting layer of the
// telemetry plane: it subscribes to the virtual-time Scraper, maintains
// derived series per instrument (windowed rates, EWMA smoothing, and
// windowed quantiles taken as differences of scraped histogram
// snapshots), and evaluates SLO rules — threshold, multi-window
// burn-rate, and staleness/absence — every scrape tick. Rule transitions
// are exported as trace events, lambdafs_slo_* instruments, and a JSONL
// alert log. The chaos harness consumes it for alert-coverage testing:
// each episode family declares alerts it must and must not fire
// (internal/chaos).
package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// Signal selects the derived series a threshold rule evaluates.
type Signal int

const (
	// SignalValue is the raw instantaneous value (max across label sets —
	// the right aggregation for gauges like per-shard queue depth).
	SignalValue Signal = iota
	// SignalRate is the per-second increase over the last tick, summed
	// across label sets (counters). Falls back to the per-tick delta when
	// virtual time did not advance between scrapes.
	SignalRate
	// SignalDelta is the per-tick increase summed across label sets —
	// deterministic regardless of tick spacing; the workhorse for chaos
	// alert contracts.
	SignalDelta
	// SignalEWMA is an exponentially weighted moving average of
	// SignalValue (smoothing factor ewmaAlpha).
	SignalEWMA
)

func (s Signal) String() string {
	switch s {
	case SignalValue:
		return "value"
	case SignalRate:
		return "rate"
	case SignalDelta:
		return "delta"
	case SignalEWMA:
		return "ewma"
	}
	return "unknown"
}

// Op is a threshold comparison direction.
type Op int

const (
	OpGreater Op = iota
	OpLess
)

func (o Op) String() string {
	if o == OpLess {
		return "<"
	}
	return ">"
}

// Rule kinds.
const (
	KindThreshold = "threshold"
	KindQuantile  = "quantile"
	KindBurnRate  = "burn_rate"
	KindAbsence   = "absence"
)

// Rule states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
)

// Rule is one declarative SLO statement against a registered
// lambdafs_* metric name. Build rules with the constructors below —
// lambdafs-vet's slorules check statically verifies the metric-name
// arguments of those constructor calls against the set of names some
// package actually registers.
type Rule struct {
	Name   string // unique rule name; alert identity in logs and traces
	Kind   string // KindThreshold | KindQuantile | KindBurnRate | KindAbsence
	Metric string // primary metric (bare instrument name, no labels)

	// Threshold / quantile.
	Signal    Signal
	Q         float64 // quantile in (0,1), KindQuantile only
	Op        Op
	Bound     float64
	HoldTicks int // consecutive breaching ticks before firing (min 1)

	// Burn rate (multi-window): fires when the error ratio
	// ΔMetric/ΔTotalMetric exceeds BurnFactor×(1-Target) over BOTH the
	// fast and the slow window — the SRE fast-burn/slow-burn pattern on
	// scrape ticks of the virtual clock.
	TotalMetric string
	Target      float64
	BurnFactor  float64
	FastTicks   int
	SlowTicks   int
}

// Threshold declares a rule that fires when the chosen derived signal of
// metric breaches bound for holdTicks consecutive scrape ticks.
func Threshold(name, metric string, sig Signal, op Op, bound float64, holdTicks int) Rule {
	if holdTicks < 1 {
		holdTicks = 1
	}
	return Rule{Name: name, Kind: KindThreshold, Metric: metric, Signal: sig, Op: op, Bound: bound, HoldTicks: holdTicks}
}

// QuantileThreshold declares a latency-style rule over a histogram: the
// q-quantile of the observations metric recorded during the last
// Config.Window scrape ticks (all label sets together) must not breach
// bound for holdTicks consecutive ticks.
func QuantileThreshold(name, metric string, q float64, op Op, bound float64, holdTicks int) Rule {
	if holdTicks < 1 {
		holdTicks = 1
	}
	return Rule{Name: name, Kind: KindQuantile, Metric: metric, Q: q, Op: op, Bound: bound, HoldTicks: holdTicks}
}

// BurnRate declares a multi-window burn-rate rule: errMetric over
// totalMetric (both counters) burning error budget 1-target faster than
// burnFactor× on both the fast and slow windows.
func BurnRate(name, errMetric, totalMetric string, target, burnFactor float64, fastTicks, slowTicks int) Rule {
	if fastTicks < 1 {
		fastTicks = 1
	}
	if slowTicks < fastTicks {
		slowTicks = fastTicks
	}
	return Rule{Name: name, Kind: KindBurnRate, Metric: errMetric, TotalMetric: totalMetric,
		Target: target, BurnFactor: burnFactor, FastTicks: fastTicks, SlowTicks: slowTicks, HoldTicks: 1}
}

// Absence declares a staleness rule: fires when activityMetric advanced
// over the last holdTicks ticks but metric did not — e.g. transactions
// committing while WAL appends are stalled. The rule arms only after
// metric has advanced at least once in the session: progress that
// *stops* is a stall, while a metric that never moves is
// indistinguishable from an instrument that is inert in this deployment
// shape (a store with no durable media registers the WAL counter but
// never increments it).
func Absence(name, metric, activityMetric string, holdTicks int) Rule {
	if holdTicks < 1 {
		holdTicks = 1
	}
	return Rule{Name: name, Kind: KindAbsence, Metric: metric, TotalMetric: activityMetric, HoldTicks: holdTicks}
}

// Transition is one alert state change, the unit of the JSONL alert log
// and of chaos alert-coverage digests.
type Transition struct {
	TUS   int64   `json:"t_us"` // virtual µs since clock.Epoch
	Rule  string  `json:"rule"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	Value float64 `json:"value"` // evaluated signal at transition
	Bound float64 `json:"bound"`
}

// RuleStatus is the live view of one rule (shell `slo` / `watch`).
type RuleStatus struct {
	Name     string
	Kind     string
	State    string
	Muted    bool
	Value    float64 // last evaluated signal
	Bound    float64
	SinceTUS int64 // virtual µs of last transition into the current state
}

// Config parameterises an Engine.
type Config struct {
	// Registry, when set, receives the lambdafs_slo_* state instruments.
	Registry *telemetry.Registry
	// Window is the sliding-window length in scrape ticks for quantile
	// rules (default 16).
	Window int
}

// ewmaAlpha is the smoothing factor for SignalEWMA.
const ewmaAlpha = 0.3

// ruleState is the per-rule evaluation state. All mutation happens on
// the scrape goroutine under Engine.mu.
type ruleState struct {
	rule  Rule
	state string
	muted bool
	// consecutive ticks the condition held (threshold hold counting)
	breachTicks int
	sinceTUS    int64
	lastValue   float64
	// rings of per-tick deltas for burn-rate / absence windows
	errRing, totalRing ring
	// EWMA accumulator
	ewma    float64
	hasEWMA bool
	// absence arming: the watched metric advanced at least once
	everProgressed bool

	firingGauge *telemetry.Gauge
	transCtr    *telemetry.Counter
}

// ring is a fixed-size ring of per-tick float64 samples.
type ring struct {
	buf  []float64
	n    int // total pushes (for fill detection)
	next int
}

func (r *ring) push(v float64) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

func (r *ring) full() bool { return r.n >= len(r.buf) }

// sumLast sums the most recent k samples (k ≤ len(buf)).
func (r *ring) sumLast(k int) float64 {
	if k > len(r.buf) {
		k = len(r.buf)
	}
	if k > r.n {
		k = r.n
	}
	s := 0.0
	for i := 0; i < k; i++ {
		s += r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)]
	}
	return s
}

// histWindow is one quantile-rule metric's sliding window: a ring of the
// last Config.Window cumulative snapshots (label sets merged), one per
// scrape tick, and the difference the latest tick left in the window.
type histWindow struct {
	ring   []metrics.HistSnapshot
	next   int
	window metrics.HistSnapshot
}

// advance records this tick's cumulative snapshot of metric and
// recomputes the window as newest minus the snapshot it evicts — the one
// taken len(ring) ticks ago, or the empty snapshot until the ring wraps.
func (hw *histWindow) advance(metric string, snap telemetry.Snapshot) {
	var cum metrics.HistSnapshot
	for k, hs := range snap.Hists {
		if seriesBase(k) == metric {
			cum = cum.Merge(hs)
		}
	}
	slot := &hw.ring[hw.next]
	hw.next = (hw.next + 1) % len(hw.ring)
	hw.window = cum.Sub(*slot)
	*slot = cum
}

// Engine evaluates SLO rules against scraper snapshots. Wire it with
// scraper.OnSnapshot(engine.Observe); every scrape tick then evaluates
// every rule at that snapshot's virtual timestamp. The engine never
// reads the wall clock: all timing derives from Snapshot.Time.
type Engine struct {
	cfg Config

	mu          sync.Mutex
	rules       []*ruleState
	byName      map[string]*ruleState
	hists       map[string]*histWindow // histogram base name → sliding window
	prevVals    map[string]float64     // previous snapshot values (delta base)
	prevTime    time.Time
	havePrev    bool
	transitions []Transition
	sink        func(trace.Event)

	evalCtr  *telemetry.Counter
	rulesGge *telemetry.Gauge
}

// New builds an Engine. Rules are added with AddRule / AddRules.
func New(cfg Config) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	e := &Engine{
		cfg:      cfg,
		byName:   make(map[string]*ruleState),
		hists:    make(map[string]*histWindow),
		prevVals: make(map[string]float64),
	}
	if cfg.Registry != nil {
		e.evalCtr = cfg.Registry.Counter("lambdafs_slo_evaluations_total")
		e.rulesGge = cfg.Registry.Gauge("lambdafs_slo_rules")
	}
	return e
}

// AddRule registers a rule. Duplicate names are rejected (first wins).
// Instruments are registered here, outside the engine lock, so the
// engine never holds its mutex across a Registry call.
func (e *Engine) AddRule(r Rule) {
	var fg *telemetry.Gauge
	var tc *telemetry.Counter
	if e.cfg.Registry != nil {
		fg = e.cfg.Registry.Gauge("lambdafs_slo_firing", telemetry.L("rule", r.Name))
		tc = e.cfg.Registry.Counter("lambdafs_slo_transitions_total", telemetry.L("rule", r.Name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.byName[r.Name]; dup {
		return
	}
	rs := &ruleState{rule: r, state: StateInactive, firingGauge: fg, transCtr: tc}
	switch r.Kind {
	case KindBurnRate:
		rs.errRing = ring{buf: make([]float64, r.SlowTicks)}
		rs.totalRing = ring{buf: make([]float64, r.SlowTicks)}
	case KindAbsence:
		rs.errRing = ring{buf: make([]float64, r.HoldTicks)}
		rs.totalRing = ring{buf: make([]float64, r.HoldTicks)}
	case KindQuantile:
		if _, ok := e.hists[r.Metric]; !ok {
			e.hists[r.Metric] = &histWindow{ring: make([]metrics.HistSnapshot, e.cfg.Window)}
		}
	}
	e.rules = append(e.rules, rs)
	e.byName[r.Name] = rs
	if e.rulesGge != nil {
		e.rulesGge.Set(float64(len(e.rules)))
	}
}

// AddRules registers a pack.
func (e *Engine) AddRules(rs []Rule) {
	for _, r := range rs {
		e.AddRule(r)
	}
}

// SetEventSink routes firing/resolved transitions as trace events
// (EventSLOFiring / EventSLOResolved) — typically into a FlightRecorder.
func (e *Engine) SetEventSink(fn func(trace.Event)) {
	e.mu.Lock()
	e.sink = fn
	e.mu.Unlock()
}

// Mute suppresses all transitions of the named rule: it keeps
// evaluating but never leaves StateInactive. This is the sabotage hook
// the chaos alert-coverage battery uses to prove that a silenced
// must-fire alert is caught by the contract assertions.
func (e *Engine) Mute(name string) {
	e.mu.Lock()
	if rs, ok := e.byName[name]; ok {
		rs.muted = true
	}
	e.mu.Unlock()
}

// Observe is the scraper OnSnapshot hook: ingest one snapshot and
// evaluate every rule at its virtual timestamp.
func (e *Engine) Observe(snap telemetry.Snapshot) {
	type metricUpdate struct {
		gauge *telemetry.Gauge
		val   float64
		ctr   *telemetry.Counter
	}
	var updates []metricUpdate
	var events []trace.Event

	e.mu.Lock()
	for metric, hw := range e.hists {
		hw.advance(metric, snap)
	}
	tus := snap.VirtualUS()
	for _, rs := range e.rules {
		val, breach, ok := e.evaluate(rs, snap)
		rs.lastValue = val
		if !ok {
			continue
		}
		from := rs.state
		to := e.step(rs, breach)
		if to == from || rs.muted {
			if rs.muted {
				rs.state = StateInactive
				rs.breachTicks = 0
			}
			continue
		}
		rs.state = to
		rs.sinceTUS = tus
		// Log only the externally meaningful edges: pending is internal
		// hold-counting state; firing and resolved are the alert surface.
		if to == StateFiring || from == StateFiring {
			tr := Transition{TUS: tus, Rule: rs.rule.Name, From: from, To: to, Value: val, Bound: rs.rule.Bound}
			e.transitions = append(e.transitions, tr)
			typ := trace.EventSLOFiring
			fv := 1.0
			if to != StateFiring {
				typ = trace.EventSLOResolved
				fv = 0
			}
			if rs.firingGauge != nil {
				updates = append(updates, metricUpdate{gauge: rs.firingGauge, val: fv, ctr: rs.transCtr})
			}
			events = append(events, trace.Event{
				Time:       snap.Time,
				Type:       typ,
				Deployment: -1,
				Detail: fmt.Sprintf("rule=%s %s->%s value=%.6g bound=%.6g",
					rs.rule.Name, from, to, val, rs.rule.Bound),
			})
		}
	}
	e.prevVals = snap.Values
	e.prevTime = snap.Time
	e.havePrev = true
	sink := e.sink
	e.mu.Unlock()

	// Registry and sink calls happen outside e.mu: the registry has its
	// own lock and GaugeFunc callbacks can re-enter arbitrary code, so
	// holding e.mu here would invite a lock-order cycle.
	for _, u := range updates {
		u.gauge.Set(u.val)
		if u.ctr != nil {
			u.ctr.Inc()
		}
	}
	if e.evalCtr != nil {
		e.evalCtr.Inc()
	}
	if sink != nil {
		for _, ev := range events {
			sink(ev)
		}
	}
}

// step advances the rule state machine one tick given whether the
// condition breached, returning the new state.
func (e *Engine) step(rs *ruleState, breach bool) string {
	if !breach {
		rs.breachTicks = 0
		return StateInactive
	}
	rs.breachTicks++
	hold := rs.rule.HoldTicks
	if rs.rule.Kind == KindAbsence {
		// The absence window itself is the hold: by the time the window
		// is drained of progress the condition has already persisted for
		// HoldTicks ticks.
		hold = 1
	}
	if rs.breachTicks >= hold {
		return StateFiring
	}
	return StatePending
}

// evaluate computes the rule's signal against snap. ok=false means the
// rule cannot be evaluated yet (no previous snapshot for deltas, window
// not yet full for burn-rate) and state should not advance.
func (e *Engine) evaluate(rs *ruleState, snap telemetry.Snapshot) (val float64, breach, ok bool) {
	r := rs.rule
	switch r.Kind {
	case KindThreshold:
		switch r.Signal {
		case SignalValue:
			val = e.aggMax(snap, r.Metric)
		case SignalEWMA:
			cur := e.aggMax(snap, r.Metric)
			if !rs.hasEWMA {
				rs.ewma, rs.hasEWMA = cur, true
			} else {
				rs.ewma = ewmaAlpha*cur + (1-ewmaAlpha)*rs.ewma
			}
			val = rs.ewma
		case SignalDelta, SignalRate:
			if !e.havePrev {
				return 0, false, false
			}
			d := e.aggDelta(snap, r.Metric)
			if r.Signal == SignalRate {
				if dt := snap.Time.Sub(e.prevTime).Seconds(); dt > 0 {
					d /= dt
				}
			}
			val = d
		}
		return val, compare(r.Op, val, r.Bound), true

	case KindQuantile:
		w := e.hists[r.Metric].window
		if w.Count == 0 {
			return 0, false, true // no traffic: quantile rule is quiet, not stuck
		}
		val = w.Quantile(r.Q).Seconds()
		return val, compare(r.Op, val, r.Bound), true

	case KindBurnRate:
		if !e.havePrev {
			return 0, false, false
		}
		rs.errRing.push(e.aggDelta(snap, r.Metric))
		rs.totalRing.push(e.aggDelta(snap, r.TotalMetric))
		if !rs.errRing.full() {
			return 0, false, false
		}
		budget := (1 - r.Target) * r.BurnFactor
		fastTot := rs.totalRing.sumLast(r.FastTicks)
		slowTot := rs.totalRing.sumLast(r.SlowTicks)
		var fast, slow float64
		if fastTot > 0 {
			fast = rs.errRing.sumLast(r.FastTicks) / fastTot
		}
		if slowTot > 0 {
			slow = rs.errRing.sumLast(r.SlowTicks) / slowTot
		}
		val = slow
		return val, fast > budget && slow > budget, true

	case KindAbsence:
		if !e.havePrev {
			return 0, false, false
		}
		d := e.aggDelta(snap, r.Metric)
		if d > 0 {
			rs.everProgressed = true
		}
		rs.errRing.push(d)
		rs.totalRing.push(e.aggDelta(snap, r.TotalMetric))
		if !rs.errRing.full() {
			return 0, false, false
		}
		activity := rs.totalRing.sumLast(r.HoldTicks)
		progress := rs.errRing.sumLast(r.HoldTicks)
		val = progress
		return val, rs.everProgressed && activity > 0 && progress == 0, true
	}
	return 0, false, false
}

func compare(op Op, v, bound float64) bool {
	if op == OpLess {
		return v < bound
	}
	return v > bound
}

// seriesBase extracts the instrument name from a flattened series key
// (everything before the label block).
func seriesBase(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// aggMax returns the max of metric across its label sets (gauge
// aggregation: "worst shard" semantics).
func (e *Engine) aggMax(snap telemetry.Snapshot, metric string) float64 {
	max, seen := 0.0, false
	for k, v := range snap.Values {
		if seriesBase(k) != metric {
			continue
		}
		if !seen || v > max {
			max, seen = v, true
		}
	}
	return max
}

// aggDelta returns the sum over label sets of the since-last-tick
// increase of metric (counter aggregation). Resets clamp at 0.
func (e *Engine) aggDelta(snap telemetry.Snapshot, metric string) float64 {
	d := 0.0
	for k, v := range snap.Values {
		if seriesBase(k) != metric {
			continue
		}
		if dv := v - e.prevVals[k]; dv > 0 {
			d += dv
		}
	}
	return d
}

// Transitions returns a copy of the alert log so far, in virtual-time
// order.
func (e *Engine) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.transitions...)
}

// Status returns the live state of every rule, sorted by rule name.
func (e *Engine) Status() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, 0, len(e.rules))
	for _, rs := range e.rules {
		out = append(out, RuleStatus{
			Name:     rs.rule.Name,
			Kind:     rs.rule.Kind,
			State:    rs.state,
			Muted:    rs.muted,
			Value:    rs.lastValue,
			Bound:    rs.rule.Bound,
			SinceTUS: rs.sinceTUS,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Firing returns the names of rules currently in StateFiring, sorted.
func (e *Engine) Firing() []string {
	var out []string
	for _, st := range e.Status() {
		if st.State == StateFiring {
			out = append(out, st.Name)
		}
	}
	return out
}

// WriteAlertsJSONL renders the alert log as one JSON object per line —
// the `-slo` artifact format of lambdafs-bench.
func (e *Engine) WriteAlertsJSONL(w io.Writer) error {
	for _, tr := range e.Transitions() {
		b, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// EpochTime converts a virtual-µs timestamp back to a time.Time, for
// display surfaces.
func EpochTime(tus int64) time.Time {
	return clock.Epoch.Add(time.Duration(tus) * time.Microsecond)
}
