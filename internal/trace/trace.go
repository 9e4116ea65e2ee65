// Package trace is the observability substrate of the λFS reproduction: a
// concurrency-safe distributed tracer that runs entirely in *virtual* time
// (internal/clock). Every metadata request can carry a trace context
// through the whole request path — client → RPC fabric → FaaS platform →
// NameNode engine → NDB store — producing a tree of spans whose durations
// are exact virtual latencies, plus a structured stream of control-plane
// events (cold starts, reclamations, hedged retries, anti-thrashing
// transitions, coherence INVs, subtree offloads).
//
// The paper's evaluation (§5) explains every curve by *where* time goes:
// gateway hops vs. cold starts vs. NDB queueing vs. coherence ACK waits.
// This package makes those decompositions measurable from a run instead of
// asserted: internal/bench aggregates traces into per-op-type latency
// breakdown tables (aggregate.go) and dumps raw traces/events as JSONL
// (jsonl.go).
//
// Tracing off is the common case and must cost nothing: every method on
// *Tracer, *Ctx and *ActiveSpan is nil-safe, so call sites thread a nil
// context through the hot path without branching.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
)

// Kind names what a span measures. Kinds are dot-scoped by the layer that
// emits them; KindOrder fixes the canonical presentation order.
type Kind string

// Span kinds emitted across the request path.
const (
	// RPC fabric (internal/rpc).
	KindRPCTCP    Kind = "rpc.tcp"     // one TCP RPC, client-observed
	KindRPCTCPNet Kind = "rpc.tcp.net" // TCP wire time (one-way hops)
	KindRPCHTTP   Kind = "rpc.http"    // one HTTP RPC, client-observed
	KindBackoff   Kind = "rpc.backoff" // retry backoff sleep

	// FaaS platform (internal/faas).
	KindGateway   Kind = "faas.gateway"   // API-gateway hop (one way)
	KindAdmit     Kind = "faas.admit"     // admission wait (warm pick / queueing)
	KindColdStart Kind = "faas.coldstart" // instance provisioning on the critical path

	// NameNode engine (internal/core).
	KindEngineExec      Kind = "engine.exec"      // whole server-side execution
	KindEngineCPU       Kind = "engine.cpu"       // instance CPU acquisition (queue + service)
	KindCoherence       Kind = "coherence.inv"    // INV/ACK exchange wait
	KindCoherenceTarget Kind = "coherence.target" // one target's INV/ACK leg of a batched round
	KindSubtreeQuiesce  Kind = "subtree.quiesce"  // Phase-2 subtree walk
	KindSubtreeExec     Kind = "subtree.exec"     // batched sub-operation execution

	// Persistent store (internal/ndb).
	KindStoreRTT     Kind = "ndb.rtt"     // network round trip to the store
	KindStoreQueue   Kind = "ndb.queue"   // wait for a shard worker
	KindStoreService Kind = "ndb.service" // shard service time
	KindStoreCommit  Kind = "ndb.commit"  // distributed commit (RTT + queue + service)
	KindStoreLock    Kind = "ndb.lock"    // contended row-lock wait (emitted only when waited)
)

// KindOrder is the canonical ordering of span kinds in decomposition
// tables and CSV columns. Append new kinds at the layer's block; never
// reorder (golden tests pin the column order).
var KindOrder = []Kind{
	KindRPCTCP, KindRPCTCPNet, KindRPCHTTP, KindBackoff,
	KindGateway, KindAdmit, KindColdStart,
	KindEngineExec, KindEngineCPU, KindCoherence, KindCoherenceTarget, KindSubtreeQuiesce, KindSubtreeExec,
	KindStoreRTT, KindStoreQueue, KindStoreService, KindStoreCommit, KindStoreLock,
}

// EventType names a control-plane event.
type EventType string

// Event types. Scale-out appears as cold_start (a new instance is the only
// way a deployment grows); scale-in appears as reclaim (idle) or evict
// (resource pressure).
const (
	EventColdStart       EventType = "cold_start"        // instance provisioned (scale-out)
	EventReclaim         EventType = "reclaim"           // idle instance scaled in
	EventEvict           EventType = "evict"             // instance evicted for space (thrashing)
	EventKill            EventType = "kill"              // fault injection
	EventHTTPReplace     EventType = "http_replace"      // randomized HTTP→TCP replacement fired
	EventRetry           EventType = "retry"             // transport-level retry
	EventHedgedRetry     EventType = "hedged_retry"      // straggler hedge fired (Appendix B)
	EventAntiThrashEnter EventType = "anti_thrash_enter" // latency collapse detected (Appendix C)
	EventAntiThrashExit  EventType = "anti_thrash_exit"  // anti-thrashing hold expired
	EventCoherenceINV    EventType = "coherence_inv"     // INV/ACK exchange completed
	EventSubtreeOffload  EventType = "subtree_offload"   // batch offloaded to a helper NameNode
	EventChaosFault      EventType = "chaos_fault"       // fault injector armed or fired a fault
	EventSLOFiring       EventType = "slo_firing"        // SLO rule transitioned to firing
	EventSLOResolved     EventType = "slo_resolved"      // SLO rule transitioned back to ok
)

// Resources is the per-span resource ledger: what a span *consumed*, as
// opposed to how long it took. Emitters attach entries at the points that
// already emit spans/metrics; the critical-path analyzer (critpath.go) and
// the JSONL export surface them per op. All fields are additive counts in
// virtual-time semantics — none reads the host.
type Resources struct {
	// Allocs counts tracked metadata-object allocations: store rows
	// materialized as INode/KV clones and response objects built for the
	// client. It is the ledger the zero-allocation hot-path work drives down.
	Allocs uint64
	// StoreHops counts dependent NDB store rounds represented by the span:
	// every store read is a multi-get, one round billed on its round-trip
	// span (none when the store models no round trip), and a commit is one.
	StoreHops uint64
	// LockWaitNS is virtual nanoseconds spent waiting on store row locks.
	LockWaitNS int64
	// INVTargets counts cache-invalidation deliveries fanned out.
	INVTargets uint64
	// WireBytes is modeled RPC payload bytes on the wire.
	WireBytes uint64
}

// Add accumulates o into r.
func (r *Resources) Add(o Resources) {
	r.Allocs += o.Allocs
	r.StoreHops += o.StoreHops
	r.LockWaitNS += o.LockWaitNS
	r.INVTargets += o.INVTargets
	r.WireBytes += o.WireBytes
}

// IsZero reports whether the ledger is empty.
func (r Resources) IsZero() bool { return r == Resources{} }

// Span is one completed, timed segment of a trace. Spans form a tree via
// Parent (0 = direct child of the trace root).
type Span struct {
	ID     uint64
	Parent uint64
	Kind   Kind
	Start  time.Time
	Dur    time.Duration

	// Res is the span's resource ledger (zero when nothing was attached).
	Res Resources

	// Tags; -1 / "" when not applicable.
	Deployment int
	Shard      int
	Instance   string
	Detail     string
}

// Trace is one end-to-end request: identity, window, and the collected
// span tree.
type Trace struct {
	ID     uint64
	Op     string // operation name (namespace.OpType.String())
	Path   string
	Client string
	Start  time.Time

	mu    sync.Mutex
	end   time.Time
	err   string
	spans []Span
}

// End returns the trace's finish time (zero until Finish is called).
func (t *Trace) End() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end
}

// Err returns the trace's recorded error text ("" on success).
func (t *Trace) Err() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Duration returns end − start (0 until finished).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		return 0
	}
	return t.end.Sub(t.Start)
}

// Spans returns a snapshot of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Resources sums the resource ledgers of every recorded span: the total
// resource bill of the request.
func (t *Trace) Resources() Resources {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r Resources
	for i := range t.spans {
		r.Add(t.spans[i].Res)
	}
	return r
}

// Event is one structured control-plane event. Time is virtual; TraceID is
// 0 for platform-scoped events not tied to a request.
type Event struct {
	Time       time.Time
	Type       EventType
	Deployment int    // -1 when not applicable
	Instance   string // instance ID when applicable
	Client     string // client ID when applicable
	TraceID    uint64
	Dur        time.Duration // event-specific duration (cold-start time, ACK wait…)
	Detail     string
}

// Config bounds the tracer's retention.
type Config struct {
	// MaxTraces caps retained traces; further StartTrace calls return nil.
	MaxTraces int
	// MaxEvents caps retained events; further events are counted dropped.
	MaxEvents int
	// MaxSpansPerTrace caps spans recorded per trace (subtree operations
	// can emit thousands); excess spans are counted dropped.
	MaxSpansPerTrace int
}

// DefaultConfig keeps everything, with generous caps.
func DefaultConfig() Config {
	return Config{MaxTraces: 1 << 20, MaxEvents: 1 << 20, MaxSpansPerTrace: 1 << 14}
}

// Tracer collects traces and events in virtual time. A nil *Tracer is a
// valid no-op tracer.
type Tracer struct {
	clk *clock.Sim
	cfg Config

	idSeq         atomic.Uint64
	spanSeq       atomic.Uint64
	droppedTraces atomic.Uint64
	droppedSpans  atomic.Uint64
	droppedEvents atomic.Uint64

	sink atomic.Value // func(Event); fan-out for flight recorders etc.

	mu     sync.Mutex
	traces []*Trace
	events []Event
}

// SetEventSink registers fn to receive every emitted event (after its
// time is stamped), regardless of the retention cap — a full Tracer
// still feeds the sink. Used to wire a telemetry flight recorder. Pass
// nil is not supported; set once at wiring time. Safe on a nil tracer.
func (tr *Tracer) SetEventSink(fn func(Event)) {
	if tr == nil || fn == nil {
		return
	}
	tr.sink.Store(fn)
}

// New creates a tracer on clk. Zero-valued cfg fields fall back to
// DefaultConfig.
func New(clk *clock.Sim, cfg Config) *Tracer {
	def := DefaultConfig()
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = def.MaxTraces
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = def.MaxEvents
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = def.MaxSpansPerTrace
	}
	return &Tracer{clk: clk, cfg: cfg}
}

// Now returns the tracer's current virtual time (zero time on a nil
// tracer).
func (tr *Tracer) Now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.clk.Now()
}

// StartTrace opens a trace for one request. Returns nil (a no-op context)
// on a nil tracer or when the trace cap is reached.
func (tr *Tracer) StartTrace(op, path, client string) *Ctx {
	if tr == nil {
		return nil
	}
	id := tr.idSeq.Add(1)
	t := &Trace{ID: id, Op: op, Path: path, Client: client, Start: tr.clk.Now()}
	tr.mu.Lock()
	if len(tr.traces) >= tr.cfg.MaxTraces {
		tr.mu.Unlock()
		tr.droppedTraces.Add(1)
		return nil
	}
	tr.traces = append(tr.traces, t)
	tr.mu.Unlock()
	return &Ctx{tracer: tr, tr: t}
}

// Emit records a standalone event. Time defaults to the current virtual
// time; Deployment defaults to -1 when the zero value was not meant (set
// it explicitly to 0 for deployment 0 — the zero Event has Deployment 0,
// so platform emitters always fill the field).
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = tr.clk.Now()
	}
	if fn, ok := tr.sink.Load().(func(Event)); ok {
		fn(ev)
	}
	tr.mu.Lock()
	if len(tr.events) >= tr.cfg.MaxEvents {
		tr.mu.Unlock()
		tr.droppedEvents.Add(1)
		return
	}
	tr.events = append(tr.events, ev)
	tr.mu.Unlock()
}

// Traces snapshots the retained traces.
func (tr *Tracer) Traces() []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*Trace(nil), tr.traces...)
}

// Events snapshots the retained events.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Event(nil), tr.events...)
}

// EventsOf filters the retained events by type.
func (tr *Tracer) EventsOf(typ EventType) []Event {
	var out []Event
	for _, ev := range tr.Events() {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped reports how many traces, spans, and events were discarded at the
// retention caps.
func (tr *Tracer) Dropped() (traces, spans, events uint64) {
	if tr == nil {
		return 0, 0, 0
	}
	return tr.droppedTraces.Load(), tr.droppedSpans.Load(), tr.droppedEvents.Load()
}

// Reset discards all retained traces and events (the shell reuses one
// tracer across commands).
func (tr *Tracer) Reset() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.traces = nil
	tr.events = nil
	tr.mu.Unlock()
}

// Ctx is a position inside a trace: the trace plus the parent span for new
// child spans. A nil *Ctx is a valid no-op context — the nil-context fast
// path request structs carry when tracing is off.
type Ctx struct {
	tracer *Tracer
	tr     *Trace
	parent uint64
}

// Start opens a span of the given kind as a child of the context's
// position. Returns nil on a nil context.
func (c *Ctx) Start(kind Kind) *ActiveSpan {
	if c == nil {
		return nil
	}
	return &ActiveSpan{
		ctx: c,
		span: Span{
			ID:         c.tracer.spanSeq.Add(1),
			Parent:     c.parent,
			Kind:       kind,
			Start:      c.tracer.clk.Now(),
			Deployment: -1,
			Shard:      -1,
		},
	}
}

// Emit records an event associated with this trace.
func (c *Ctx) Emit(ev Event) {
	if c == nil {
		return
	}
	ev.TraceID = c.tr.ID
	c.tracer.Emit(ev)
}

// Finish closes the trace with an optional error text. Idempotent per
// trace; later calls overwrite (retries re-finish with the final result).
func (c *Ctx) Finish(errText string) {
	if c == nil {
		return
	}
	now := c.tracer.clk.Now()
	c.tr.mu.Lock()
	c.tr.end = now
	c.tr.err = errText
	c.tr.mu.Unlock()
}

// Trace returns the underlying trace (nil on a nil context).
func (c *Ctx) Trace() *Trace {
	if c == nil {
		return nil
	}
	return c.tr
}

// ActiveSpan is an open span. End records it; Ctx derives a child context.
// A nil *ActiveSpan is a valid no-op.
type ActiveSpan struct {
	ctx     *Ctx
	span    Span
	dropped bool
}

// Ctx returns a context whose new spans become children of this span.
func (a *ActiveSpan) Ctx() *Ctx {
	if a == nil {
		return nil
	}
	return &Ctx{tracer: a.ctx.tracer, tr: a.ctx.tr, parent: a.span.ID}
}

// SetDeployment tags the span with a deployment index.
func (a *ActiveSpan) SetDeployment(dep int) {
	if a != nil {
		a.span.Deployment = dep
	}
}

// SetShard tags the span with a store shard index.
func (a *ActiveSpan) SetShard(shard int) {
	if a != nil {
		a.span.Shard = shard
	}
}

// SetInstance tags the span with a FaaS instance ID.
func (a *ActiveSpan) SetInstance(id string) {
	if a != nil {
		a.span.Instance = id
	}
}

// SetDetail attaches free-form detail text.
func (a *ActiveSpan) SetDetail(d string) {
	if a != nil {
		a.span.Detail = d
	}
}

// AddRes accumulates a resource ledger entry onto the span.
func (a *ActiveSpan) AddRes(r Resources) {
	if a != nil {
		a.span.Res.Add(r)
	}
}

// AddAllocs records tracked metadata-object allocations.
func (a *ActiveSpan) AddAllocs(n uint64) {
	if a != nil {
		a.span.Res.Allocs += n
	}
}

// AddStoreHops records dependent NDB store rounds.
func (a *ActiveSpan) AddStoreHops(n uint64) {
	if a != nil {
		a.span.Res.StoreHops += n
	}
}

// AddLockWait records virtual time spent waiting on store row locks.
func (a *ActiveSpan) AddLockWait(d time.Duration) {
	if a != nil {
		a.span.Res.LockWaitNS += d.Nanoseconds()
	}
}

// AddINVTargets records cache-invalidation deliveries fanned out.
func (a *ActiveSpan) AddINVTargets(n uint64) {
	if a != nil {
		a.span.Res.INVTargets += n
	}
}

// AddWireBytes records modeled RPC payload bytes on the wire.
func (a *ActiveSpan) AddWireBytes(n uint64) {
	if a != nil {
		a.span.Res.WireBytes += n
	}
}

// Cancel discards the span: End becomes a no-op (used when the measured
// action turned out not to happen, e.g. provisioning that found no
// capacity).
func (a *ActiveSpan) Cancel() {
	if a != nil {
		a.dropped = true
	}
}

// End closes the span at the current virtual time and records it on the
// trace.
func (a *ActiveSpan) End() {
	if a == nil || a.dropped {
		return
	}
	a.EndAt(a.span.Start, a.ctx.tracer.clk.Now().Sub(a.span.Start))
}

// EndAt records the span with an explicit window instead of the one the
// clock observed between Start and now: a leg whose start and duration
// were computed (a reserved slot in a clock.Queue) rather than lived
// through.
func (a *ActiveSpan) EndAt(start time.Time, dur time.Duration) {
	if a == nil || a.dropped {
		return
	}
	a.dropped = true // double-End protection
	a.span.Start, a.span.Dur = start, dur
	tracer := a.ctx.tracer
	t := a.ctx.tr
	t.mu.Lock()
	if len(t.spans) >= tracer.cfg.MaxSpansPerTrace {
		t.mu.Unlock()
		tracer.droppedSpans.Add(1)
		return
	}
	t.spans = append(t.spans, a.span)
	t.mu.Unlock()
}
