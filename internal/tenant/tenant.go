// Package tenant implements multi-tenant admission control for the
// metadata service: a registry of tenant classes with per-tenant
// token-bucket rate limits and in-flight (queue-depth) caps, weighted
// fair queuing across tenants, and load-adaptive tenant→shard placement
// in the style of CephFS subtree partitioning (internal/cephfs). The
// engine consults the registry before executing a request (core's
// Admission hook); rejected requests surface as
// namespace.ErrThrottled without touching the store.
//
// Every admission decision feeds per-tenant instruments
// (lambdafs_tenant_*) so the SLO engine can alert on throttle surges and
// the scale experiments can report per-tenant fairness.
//
// # Concurrency and ownership
//
// A Registry and its Tenants are safe for concurrent use: Admit/Done
// take a per-tenant mutex, and registration takes the registry mutex.
// Token buckets refill lazily from the virtual clock at admission time,
// so admission stays deterministic on simulated time. FairQueue and
// Placement are NOT thread-safe — they are owned by a single scheduler
// loop (the discrete-event scale model, or one shard's dispatch
// goroutine) and must be confined to it.
package tenant

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/telemetry"
)

// Class declares one tenant's admission contract.
type Class struct {
	// Name identifies the tenant; requests carry it in
	// namespace.Request.Tenant.
	Name string
	// Weight is the tenant's weighted-fair-queuing share (default 1).
	Weight float64
	// OpsPerSec is the token-bucket refill rate; <= 0 disables rate
	// limiting for the tenant.
	OpsPerSec float64
	// Burst is the bucket capacity in ops (default OpsPerSec, i.e. one
	// second of burst).
	Burst float64
	// MaxInflight caps the tenant's concurrently admitted operations;
	// <= 0 disables the cap.
	MaxInflight int
}

// Tenant is one registered tenant's live admission state.
type Tenant struct {
	Class

	mu       sync.Mutex
	tokens   float64
	last     time.Time
	inflight int

	admitted  *telemetry.Counter
	throttled *telemetry.Counter
	inflightG *telemetry.Gauge
}

// Registry holds the tenant population. It implements core's Admission
// interface, so it can be wired directly into EngineConfig.Admission.
type Registry struct {
	clk clock.Clock
	reg *telemetry.Registry

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []*Tenant
}

// NewRegistry builds an empty registry on the given virtual clock. reg
// may be nil (instruments no-op).
func NewRegistry(clk clock.Clock, reg *telemetry.Registry) *Registry {
	r := &Registry{clk: clk, reg: reg, tenants: make(map[string]*Tenant)}
	reg.GaugeFunc("lambdafs_tenant_count", func() float64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return float64(len(r.order))
	})
	return r
}

// Register adds (or replaces) a tenant and returns its live state.
func (r *Registry) Register(c Class) *Tenant {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = c.OpsPerSec
	}
	t := &Tenant{
		Class:     c,
		tokens:    c.Burst,
		last:      r.clk.Now(),
		admitted:  r.reg.Counter("lambdafs_tenant_admitted_total", telemetry.L("tenant", c.Name)),
		throttled: r.reg.Counter("lambdafs_tenant_throttled_total", telemetry.L("tenant", c.Name)),
		inflightG: r.reg.Gauge("lambdafs_tenant_inflight", telemetry.L("tenant", c.Name)),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.tenants[c.Name]; ok {
		for i, o := range r.order {
			if o == old {
				r.order[i] = t
			}
		}
	} else {
		r.order = append(r.order, t)
	}
	r.tenants[c.Name] = t
	return t
}

// Lookup returns the named tenant (nil when unregistered).
func (r *Registry) Lookup(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// Admit gates one operation for the named tenant: the in-flight cap is
// checked first, then the token bucket. On success the caller MUST pair
// it with Done. Unregistered tenants (and the empty name) are admitted
// without accounting — admission is opt-in per tenant.
func (r *Registry) Admit(name string) error {
	t := r.Lookup(name)
	if t == nil {
		return nil
	}
	return t.admit(r.clk.Now())
}

// Done releases one admitted operation.
func (r *Registry) Done(name string) {
	if t := r.Lookup(name); t != nil {
		t.done()
	}
}

func (t *Tenant) admit(now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.MaxInflight > 0 && t.inflight >= t.MaxInflight {
		t.throttled.Inc()
		return namespace.ErrThrottled
	}
	if t.OpsPerSec > 0 {
		dt := now.Sub(t.last).Seconds()
		if dt > 0 {
			t.tokens += dt * t.OpsPerSec
			if t.tokens > t.Burst {
				t.tokens = t.Burst
			}
			t.last = now
		}
		if t.tokens < 1 {
			t.throttled.Inc()
			return namespace.ErrThrottled
		}
		t.tokens--
	}
	t.inflight++
	t.admitted.Inc()
	t.inflightG.Set(float64(t.inflight))
	return nil
}

func (t *Tenant) done() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inflight > 0 {
		t.inflight--
	}
	t.inflightG.Set(float64(t.inflight))
}

// Inflight returns the tenant's currently admitted operation count.
func (t *Tenant) Inflight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight
}

// Admitted and Throttled expose the tenant's cumulative admission
// counters (zero when the registry has no telemetry plane).
func (t *Tenant) Admitted() float64  { return t.admitted.Value() }
func (t *Tenant) Throttled() float64 { return t.throttled.Value() }

// ---------------------------------------------------------------------------
// Weighted fair queuing.

// FairQueue is a start-time-fair queue over tenant flows: each pushed
// item receives a virtual finish tag advanced by 1/weight past
// max(queue virtual time, the flow's previous tag), and Pop always
// returns the item with the smallest tag (registration order breaks
// ties). A tenant with weight 2 therefore drains twice as fast as a
// weight-1 tenant under contention, and an idle tenant's unused share is
// redistributed automatically. Not safe for concurrent use — confine it
// to the owning scheduler loop.
type FairQueue[T any] struct {
	vtime float64
	flows []*flow[T]
	index map[string]*flow[T]
	size  int
}

type flow[T any] struct {
	name   string
	weight float64
	finish float64 // tag of the most recently pushed item
	items  []fqItem[T]
	head   int
}

type fqItem[T any] struct {
	tag float64
	val T
}

// NewFairQueue returns an empty queue.
func NewFairQueue[T any]() *FairQueue[T] {
	return &FairQueue[T]{index: make(map[string]*flow[T])}
}

// Len returns the number of queued items across all flows.
func (q *FairQueue[T]) Len() int { return q.size }

// Push enqueues v for the named tenant flow with the given weight
// (flows are created on first use; weight <= 0 counts as 1).
func (q *FairQueue[T]) Push(tenantName string, weight float64, v T) {
	f := q.index[tenantName]
	if f == nil {
		if weight <= 0 {
			weight = 1
		}
		f = &flow[T]{name: tenantName, weight: weight}
		q.index[tenantName] = f
		q.flows = append(q.flows, f)
	}
	start := q.vtime
	if f.finish > start {
		start = f.finish
	}
	f.finish = start + 1/f.weight
	f.items = append(f.items, fqItem[T]{tag: f.finish, val: v})
	q.size++
}

// Pop dequeues the item with the smallest finish tag, advancing the
// queue's virtual time to it. The second result is false when empty.
func (q *FairQueue[T]) Pop() (T, bool) {
	var best *flow[T]
	for _, f := range q.flows {
		if f.head >= len(f.items) {
			continue
		}
		if best == nil || f.items[f.head].tag < best.items[best.head].tag {
			best = f
		}
	}
	if best == nil {
		var zero T
		return zero, false
	}
	it := best.items[best.head]
	var zero fqItem[T]
	best.items[best.head] = zero
	best.head++
	if best.head == len(best.items) {
		best.items = best.items[:0]
		best.head = 0
	}
	q.size--
	q.vtime = it.tag
	return it.val, true
}

// ---------------------------------------------------------------------------
// Load-adaptive placement.

// Placement maps tenants onto namespace shards. The default mapping
// hashes the tenant name (exactly how the CephFS model pins a top-level
// directory to an MDS — see cephfs.mdsFor); RebalanceProportional replaces
// it with a load-adaptive one. Not safe for concurrent use.
type Placement struct {
	shards int
	spans  map[string]span
}

// span is a tenant's contiguous shard allocation (wrapping mod shards).
type span struct{ start, width int }

// NewPlacement builds a placement over n shards (minimum 1).
func NewPlacement(n int) *Placement {
	if n < 1 {
		n = 1
	}
	return &Placement{shards: n, spans: make(map[string]span)}
}

// Shards returns the shard count.
func (p *Placement) Shards() int { return p.shards }

// ShardFor returns the tenant's default shard: the stable hash of its
// name.
func (p *Placement) ShardFor(tenantName string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(tenantName)) // hash.Hash.Write never fails

	return int(h.Sum32()) % p.shards
}

// RebalanceProportional allocates each tenant a contiguous run of shards
// sized by its load share (minimum one shard), heaviest tenant first, so
// a tenant too big for a single shard gets several. Runs may wrap and
// overlap when the population outnumbers the shards; ClientShard spreads
// a tenant's clients round-robin across its run. Deterministic for a
// given load map.
func (p *Placement) RebalanceProportional(load map[string]float64) {
	names := make([]string, 0, len(load))
	total := 0.0
	for name, l := range load {
		names = append(names, name)
		total += l
	}
	sort.Slice(names, func(i, j int) bool {
		if load[names[i]] != load[names[j]] {
			return load[names[i]] > load[names[j]]
		}
		return names[i] < names[j]
	})
	spans := make(map[string]span, len(names))
	start := 0
	for _, name := range names {
		width := 1
		if total > 0 {
			width = int(load[name]/total*float64(p.shards) + 0.5)
			if width < 1 {
				width = 1
			}
			if width > p.shards {
				width = p.shards
			}
		}
		spans[name] = span{start: start % p.shards, width: width}
		start += width
	}
	p.spans = spans
}

// ClientShard maps one client of a tenant onto a shard: round-robin over
// the tenant's proportional run when one exists, the tenant's hashed shard
// otherwise.
func (p *Placement) ClientShard(tenantName string, client int) int {
	if sp, ok := p.spans[tenantName]; ok {
		return (sp.start + client%sp.width) % p.shards
	}
	return p.ShardFor(tenantName)
}
