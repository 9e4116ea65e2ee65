// Package tenant implements multi-tenant admission control for the
// metadata service: a registry of tenant classes with per-tenant
// token-bucket rate limits and in-flight caps. The engine consults the
// registry before executing a tenant-tagged request (core's Admission
// hook; rpc.Client.Tenant is the tag); rejected requests surface as
// namespace.ErrThrottled without touching the store. That gate is all
// the isolation the request path has: behind it the store's shard
// queues are clock.Queue reservations, served first come first served.
//
// Every admission decision feeds per-tenant instruments
// (lambdafs_tenant_*) so the SLO engine can alert on throttle surges and
// the scale experiment can report per-tenant admission.
//
// # Concurrency and ownership
//
// A Registry and its Tenants are safe for concurrent use: Admit/Done
// take a per-tenant mutex, and registration takes the registry mutex.
// Token buckets refill lazily from the virtual clock at admission time,
// so admission stays deterministic on simulated time.
package tenant

import (
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
	clk *clock.Sim
	reg *telemetry.Registry

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []*Tenant
}

// NewRegistry builds an empty registry on the given virtual clock. reg
// may be nil (instruments no-op).
func NewRegistry(clk *clock.Sim, reg *telemetry.Registry) *Registry {
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
