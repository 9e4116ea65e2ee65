package trace

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"lambdafs/internal/metrics"
)

// This file collapses finished traces into the one latency decomposition:
// per operation type, which span kinds the requests actually waited on.
// Each trace's end-to-end window is walked along its critical path, and
// every instant of it is attributed to exactly one span kind or to the
// untraced gap. Per op type the kind totals plus the untraced time are the
// end-to-end total, exactly: legs that run side by side (the shards of one
// multi-get or commit, the targets of one INV round) count once, not once
// per leg.
//
// The walk runs backward from the trace end. Within a window owned by a
// span, its children are visited latest-ending first; the stretch between
// the cursor and a child's end belongs to the parent, the child's own
// interval is attributed recursively, and the cursor jumps to the child's
// start. A child ending after the cursor overlaps a stretch already
// attributed: it is a parallel branch that finished earlier, off the
// critical path, and is skipped.
//
// Alongside the time on the path, every kind carries its resource ledger
// (Resources) summed over all its spans, on or off the path: parallel
// branches still bill store hops and INV deliveries even when they are
// not what the client waited on.

// KindStat aggregates one span kind over a cohort's traces.
type KindStat struct {
	Kind Kind
	// Total is the critical-path time attributed to the kind.
	Total time.Duration
	// Spans counts the kind's spans, on or off the path.
	Spans uint64
	// Res is the kind's resource ledger over all its spans.
	Res Resources
}

// Cohort aggregates the critical paths of a set of traces of one
// operation type.
type Cohort struct {
	Name     string
	Count    int // traces
	E2ETotal time.Duration
	// Attributed is the end-to-end time on named spans: E2ETotal minus
	// the untraced gaps, and the sum of every kind's Total.
	Attributed time.Duration
	kinds      map[Kind]*KindStat
}

func newCohort(name string) *Cohort {
	return &Cohort{Name: name, kinds: make(map[Kind]*KindStat)}
}

// Kind returns the aggregate for kind k (nil when no span of the kind
// appeared in the cohort).
func (c *Cohort) Kind(k Kind) *KindStat { return c.kinds[k] }

func (c *Cohort) kind(k Kind) *KindStat {
	ks := c.kinds[k]
	if ks == nil {
		ks = &KindStat{Kind: k}
		c.kinds[k] = ks
	}
	return ks
}

// Kinds returns the present kinds in canonical order (KindOrder first,
// then any unknown kinds alphabetically).
func (c *Cohort) Kinds() []*KindStat {
	out := c.stats()
	slices.SortFunc(out, func(a, b *KindStat) int { return compareKinds(a.Kind, b.Kind) })
	return out
}

// Ranked returns the present kinds by critical-path time, descending.
// Exact ties, common in the deterministic simulation, rank the kind with
// more store hops first, then follow canonical kind order.
func (c *Cohort) Ranked() []*KindStat {
	out := c.stats()
	slices.SortFunc(out, func(a, b *KindStat) int {
		if c := cmp.Compare(b.Total, a.Total); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Res.StoreHops, a.Res.StoreHops); c != 0 {
			return c
		}
		return compareKinds(a.Kind, b.Kind)
	})
	return out
}

func (c *Cohort) stats() []*KindStat {
	out := make([]*KindStat, 0, len(c.kinds))
	for _, ks := range c.kinds {
		out = append(out, ks)
	}
	return out
}

// Untraced is the end-to-end time no span accounts for.
func (c *Cohort) Untraced() time.Duration { return c.E2ETotal - c.Attributed }

// AttributedFraction is the share of end-to-end latency spent on named
// spans (0..1).
func (c *Cohort) AttributedFraction() float64 {
	if c.E2ETotal <= 0 {
		return 0
	}
	return float64(c.Attributed) / float64(c.E2ETotal)
}

// MeanShare is the share of the cohort's end-to-end latency spent in kind
// k (0 when the kind never appeared).
func (c *Cohort) MeanShare(k Kind) float64 {
	ks := c.kinds[k]
	if ks == nil || c.E2ETotal <= 0 {
		return 0
	}
	return float64(ks.Total) / float64(c.E2ETotal)
}

// OpStats aggregates one operation type: the embedded cohort holds every
// finished trace of it, P50 the traces at or below the median latency and
// P99 the tail at or above the 99th percentile.
type OpStats struct {
	*Cohort
	Op       string
	E2E      *metrics.Histogram // end-to-end latency
	P50, P99 *Cohort
}

// Breakdown is the per-op-type latency decomposition over a set of traces.
type Breakdown struct {
	ops map[string]*OpStats
}

// OpNames returns the operation types present, sorted.
func (b *Breakdown) OpNames() []string {
	out := make([]string, 0, len(b.ops))
	for op := range b.ops {
		out = append(out, op)
	}
	slices.Sort(out)
	return out
}

// Op returns the aggregate for one operation type (nil when absent).
func (b *Breakdown) Op(name string) *OpStats { return b.ops[name] }

// KindsPresent returns every kind appearing anywhere in the breakdown, in
// canonical order (stable CSV column order).
func (b *Breakdown) KindsPresent() []Kind {
	var out []Kind
	for _, o := range b.ops {
		for k := range o.kinds {
			if !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	slices.SortFunc(out, compareKinds)
	return out
}

// compareKinds orders kinds canonically: KindOrder first, then unknown
// kinds alphabetically.
func compareKinds(a, b Kind) int {
	rank := func(k Kind) int {
		if i := slices.Index(KindOrder, k); i >= 0 {
			return i
		}
		return len(KindOrder)
	}
	if c := cmp.Compare(rank(a), rank(b)); c != 0 {
		return c
	}
	return strings.Compare(string(a), string(b))
}

// Aggregate decomposes finished traces (unfinished ones are skipped) along
// their critical paths.
func Aggregate(traces []*Trace) *Breakdown {
	type finished struct {
		t   *Trace
		end time.Time
	}
	perOp := make(map[string][]finished)
	for _, t := range traces {
		end := t.End()
		if end.IsZero() || end.Before(t.Start) {
			continue
		}
		perOp[t.Op] = append(perOp[t.Op], finished{t, end})
	}
	b := &Breakdown{ops: make(map[string]*OpStats, len(perOp))}
	for op, fs := range perOp {
		o := &OpStats{Cohort: newCohort("all"), Op: op, E2E: metrics.NewHistogram(),
			P50: newCohort("p50"), P99: newCohort("p99")}
		lats := make([]time.Duration, len(fs))
		for i, f := range fs {
			lats[i] = f.end.Sub(f.t.Start)
			o.E2E.Observe(lats[i])
		}
		sorted := slices.Clone(lats)
		slices.Sort(sorted)
		p50, p99 := sorted[(len(sorted)-1)/2], sorted[int(float64(len(sorted)-1)*0.99)]
		for i, f := range fs {
			into := []*Cohort{o.Cohort}
			if lats[i] <= p50 {
				into = append(into, o.P50)
			}
			if lats[i] >= p99 {
				into = append(into, o.P99)
			}
			walk(f.t, f.end, into)
		}
		b.ops[op] = o
	}
	return b
}

// walk attributes the window [t.Start, end] of one trace along its
// critical path into every cohort the trace belongs to.
func walk(t *Trace, end time.Time, into []*Cohort) {
	// Clip spans to the window: a hedged primary's spans may outlive the
	// trace, and only the in-window portion explains the client's wait.
	spans := t.Spans()
	clipped := spans[:0]
	var outlived map[uint64]bool // spans cut at the trace end
	for _, s := range spans {
		if !s.Start.Before(end) {
			continue
		}
		if s.Start.Before(t.Start) {
			s.Dur -= t.Start.Sub(s.Start)
			s.Start = t.Start
		}
		if over := s.Start.Add(s.Dur).Sub(end); over > 0 {
			s.Dur -= over
			if outlived == nil {
				outlived = make(map[uint64]bool)
			}
			outlived[s.ID] = true
		}
		s.Dur = max(s.Dur, 0)
		clipped = append(clipped, s)
	}
	for _, c := range into {
		c.Count++
		c.E2ETotal += end.Sub(t.Start)
		for i := range clipped {
			ks := c.kind(clipped[i].Kind)
			ks.Spans++
			ks.Res.Add(clipped[i].Res)
		}
	}

	// Latest-ending first; equal ends prefer the longer span (the fuller
	// explanation of the window), then one that ended on its own over one
	// cut at the trace end (of two racers started together, the one that
	// answered, not the loser still out), then span ID for determinism.
	// Each parent's child list inherits the order.
	slices.SortFunc(clipped, func(a, b Span) int {
		if c := b.Start.Add(b.Dur).Compare(a.Start.Add(a.Dur)); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Dur, a.Dur); c != 0 {
			return c
		}
		if oa := outlived[a.ID]; oa != outlived[b.ID] {
			if oa {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	kids := make(map[uint64][]*Span, len(clipped))
	for i := range clipped {
		s := &clipped[i]
		kids[s.Parent] = append(kids[s.Parent], s)
	}

	attr := func(k Kind, d time.Duration) {
		if d <= 0 || k == "" {
			return // the root's own stretches are the untraced gap
		}
		for _, c := range into {
			c.kind(k).Total += d
			c.Attributed += d
		}
	}
	var step func(id uint64, kind Kind, lo, hi time.Time)
	step = func(id uint64, kind Kind, lo, hi time.Time) {
		cur := hi
		for _, c := range kids[id] {
			cEnd := c.Start.Add(c.Dur)
			if cEnd.After(cur) {
				continue // a parallel branch, off the critical path
			}
			if !cEnd.After(lo) {
				break // this and every earlier-ending child lie before the window
			}
			attr(kind, cur.Sub(cEnd))
			cur = c.Start
			if cur.Before(lo) {
				cur = lo
			}
			step(c.ID, c.Kind, cur, cEnd)
			if !cur.After(lo) {
				return
			}
		}
		attr(kind, cur.Sub(lo))
	}
	step(0, "", t.Start, end)
}
