// Package faas simulates the serverless platform λFS runs on (Apache
// OpenWhisk in the paper): named function deployments, function instances
// with cold starts and per-instance HTTP concurrency levels, an API
// gateway that routes invocations to warm instances or provisions new
// ones, idle-based scale-in, a finite vCPU/RAM resource pool with optional
// eviction of idle instances from other deployments (the thrashing regime
// of Appendix C), fault injection, and pay-per-use billing meters.
//
// An instance's compute capacity is its deployment's vCPU count as a
// clock.Queue (ceil(vCPU) servers stretched by ceil(vCPU)/vCPU): a CPU
// charge books its slot and sleeps through it, or until the instance is
// killed. Instances own no goroutines; terminating one releases nothing
// but its pool share.
//
// The platform knows nothing about file system metadata; it hosts Apps.
// λFS NameNodes, InfiniCache nodes, and λIndexFS functions are all Apps.
package faas

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// App is the code running inside a function instance.
type App interface {
	// HandleInvoke serves one HTTP invocation payload and returns the
	// response. The platform has already accounted admission, billing
	// and gateway latency.
	HandleInvoke(payload any) any
	// Shutdown is called exactly once when the instance terminates.
	// crashed distinguishes abrupt termination (fault injection,
	// eviction under pressure counts as graceful) from scale-in.
	Shutdown(crashed bool)
}

// AppFactory builds the App for a new instance of a deployment.
type AppFactory func(inst *Instance) App

// Config shapes the platform.
type Config struct {
	// TotalVCPU and TotalRAMGB bound the resource pool available to all
	// deployments together (the evaluation's 512-vCPU cap).
	TotalVCPU  float64
	TotalRAMGB float64

	// ColdStart is the provisioning latency of a new instance.
	ColdStart time.Duration
	// GatewayLatency is the one-way API-gateway routing latency; an HTTP
	// invocation pays it twice (request and response), which is the
	// dominant term of the paper's 8–20 ms HTTP RPC latency.
	GatewayLatency time.Duration
	// IdleReclaim terminates instances idle longer than this (scale-in).
	IdleReclaim time.Duration
	// MaxUtilization caps the fraction of TotalVCPU the platform will
	// provision (λFS's self-imposed 92.77% anti-thrashing bound, §5.1).
	MaxUtilization float64

	// Meters receive billing events when non-nil.
	Lambda      *metrics.LambdaMeter
	Provisioned *metrics.ProvisionedMeter

	// Tracer, when non-nil, receives platform lifecycle events (cold
	// starts, reclamations, evictions, kills) and attaches gateway /
	// admission / cold-start spans to traced invocations.
	Tracer *trace.Tracer

	// OnInvoke, when non-nil, is consulted at the start of every HTTP
	// invocation already admitted to an instance, with the deployment index
	// and instance id; returning true abruptly terminates the instance
	// mid-invocation and drops the request (fault injection: the client
	// sees an unavailable response and retries). Must be safe for
	// concurrent use.
	OnInvoke func(dep int, instID string) bool
	// OnProvision, when non-nil, is consulted before every instance
	// provisioning attempt with the deployment index; returning false fails
	// the attempt as if the resource pool were exhausted (fault injection:
	// cold-start storms and pool exhaustion). Must be safe for concurrent
	// use.
	OnProvision func(dep int) bool

	// Metrics is the registry the platform's instruments (lambdafs_faas_*)
	// live in: the invocation/cold-start/reclaim/evict/kill/rejection
	// counters Stats() reads, plus live pool gauges (active instances,
	// warm instances, vCPU in use, utilization). Nil gives the platform a
	// private registry of its own.
	Metrics *telemetry.Registry
}

// DefaultConfig returns OpenWhisk-like parameters used across the
// evaluation.
func DefaultConfig() Config {
	return Config{
		TotalVCPU:      512,
		TotalRAMGB:     4096,
		ColdStart:      900 * time.Millisecond,
		GatewayLatency: 4 * time.Millisecond,
		IdleReclaim:    30 * time.Second,
		MaxUtilization: 0.9277,
	}
}

// reclaimInterval is the reclaimer's scan period: an idle instance goes
// at the first scan after it has been idle for IdleReclaim. The paper
// gives no value; 5 s is a sixth of the 30 s IdleReclaim, fine enough
// for the scale-in that fig8a, fig9 and trace's idle phase show.
const reclaimInterval = 5 * time.Second

// invokeQueueTimeout bounds how long an invocation waits for admission
// before the platform sheds it (HTTP 503 → client backoff). The paper
// gives no value; 15 s lets a burst queue through a cold start many
// times over, so only a platform pinned at its cap sheds.
const invokeQueueTimeout = 15 * time.Second

// DeploymentOptions shape one function deployment.
type DeploymentOptions struct {
	// VCPU and RAMGB are the per-instance resource shape.
	VCPU  float64
	RAMGB float64
	// ConcurrencyLevel is the number of HTTP invocations one instance
	// serves simultaneously (the paper's OpenWhisk extension, §3.4).
	ConcurrencyLevel int
	// MaxInstances caps intra-deployment scale-out (Figure 14's
	// "limited"/"no" auto-scaling ablation). 0 = unlimited.
	MaxInstances int
	// MinInstances are pre-warmed at registration.
	MinInstances int
}

// Platform errors.
var (
	ErrNoCapacity   = errors.New("faas: no capacity for invocation")
	ErrClosed       = errors.New("faas: platform closed")
	ErrNoDeployment = errors.New("faas: unknown deployment")
)

// Stats counts platform activity. The counters are a read of the
// lambdafs_faas_*_total registry instruments (see Platform.Stats).
type Stats struct {
	Invocations   uint64
	ColdStarts    uint64
	ColdStartTime time.Duration // cumulative virtual time spent provisioning
	Reclamations  uint64        // idle scale-in events
	Evictions     uint64        // instances evicted to make room (thrashing)
	Kills         uint64        // fault injections
	Rejections    uint64        // invocations shed after queue timeout
	PeakVCPUUsed  float64
	Deployments   []DeploymentStats // per-deployment snapshot, by index
}

// DeploymentStats is the per-deployment slice of a Stats snapshot.
type DeploymentStats struct {
	Name          string
	Alive         int // currently live instances
	PeakInstances int // high-water mark of concurrently live instances
}

// traceCarrier lets the platform lift a trace context out of an opaque
// invocation payload without importing the RPC package (rpc.Payload
// implements it).
type traceCarrier interface{ TraceCtx() *trace.Ctx }

func traceOf(payload any) *trace.Ctx {
	if c, ok := payload.(traceCarrier); ok {
		return c.TraceCtx()
	}
	return nil
}

// Platform is the FaaS control plane.
type Platform struct {
	clk *clock.Sim
	cfg Config

	mu          sync.Mutex
	deployments []*Deployment
	vcpuUsed    float64
	ramUsed     float64
	peakVCPU    float64 // high-water mark of vcpuUsed
	instSeq     int
	closed      bool
	stopReclaim *clock.Event

	tel faasTelemetry
}

// Deployment is one registered serverless function.
type Deployment struct {
	p       *Platform
	index   int
	name    string
	factory AppFactory
	opts    DeploymentOptions

	mu            sync.Mutex
	instances     []*Instance
	peakInstances int // high-water mark of live instances
	// slotFreed wakes one admission waiter when an HTTP slot or pool
	// capacity frees. It is offered, never queued: a wake-up nobody was
	// parked for would only re-run an admission pass that cannot succeed.
	slotFreed *clock.Mailbox[struct{}]
}

// New creates a platform and starts its reclaimer.
func New(clk *clock.Sim, cfg Config) *Platform {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Platform{clk: clk, cfg: cfg, stopReclaim: clock.NewEvent(clk), tel: newFaasTelemetry(reg)}
	p.registerPoolGauges(reg)
	clock.GoDaemon(clk, p.reclaimLoop)
	return p
}

// Register adds a function deployment named name.
func (p *Platform) Register(name string, factory AppFactory, opts DeploymentOptions) *Deployment {
	if opts.VCPU <= 0 {
		opts.VCPU = 1
	}
	if opts.RAMGB <= 0 {
		opts.RAMGB = 1
	}
	if opts.ConcurrencyLevel <= 0 {
		opts.ConcurrencyLevel = 1
	}
	d := &Deployment{
		p:         p,
		name:      name,
		factory:   factory,
		opts:      opts,
		slotFreed: clock.NewMailbox[struct{}](p.clk),
	}
	p.mu.Lock()
	d.index = len(p.deployments)
	p.deployments = append(p.deployments, d)
	p.mu.Unlock()
	for i := 0; i < opts.MinInstances; i++ {
		if inst := d.provision(false); inst == nil {
			break
		}
	}
	return d
}

// Deployment returns deployment i.
func (p *Platform) Deployment(i int) *Deployment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.deployments) {
		return nil
	}
	return p.deployments[i]
}

// Deployments returns the number of registered deployments.
func (p *Platform) Deployments() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.deployments)
}

// Invoke performs an HTTP invocation of deployment dep: gateway hop,
// admission to a warm instance (or cold start), app execution, gateway
// hop back. It blocks until the response is available.
func (p *Platform) Invoke(dep int, payload any) (any, error) {
	d := p.Deployment(dep)
	if d == nil {
		return nil, ErrNoDeployment
	}
	return d.Invoke(payload)
}

// Invoke is Platform.Invoke for a known deployment.
func (d *Deployment) Invoke(payload any) (any, error) {
	p := d.p
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	p.tel.invocations.Inc()

	tc := traceOf(payload)
	gsp := tc.Start(trace.KindGateway)
	gsp.SetDeployment(d.index)
	p.clk.Sleep(p.cfg.GatewayLatency)
	gsp.End()
	asp := tc.Start(trace.KindAdmit)
	asp.SetDeployment(d.index)
	// Admission's child context: a cold start triggered by this admission
	// nests under the admit span (the decomposition counts it once).
	inst, err := d.admit(asp.Ctx())
	if err != nil {
		asp.SetDetail("rejected")
		asp.End()
		if err == ErrNoCapacity { // a close is no shed invocation
			p.tel.rejections.Inc()
		}
		return nil, err
	}
	asp.SetInstance(inst.id)
	asp.End()
	if p.cfg.Lambda != nil {
		p.cfg.Lambda.BillRequest(p.clk.Now())
	}
	resp := inst.serveHTTP(payload)
	gsp = tc.Start(trace.KindGateway)
	gsp.SetDeployment(d.index)
	p.clk.Sleep(p.cfg.GatewayLatency)
	gsp.End()
	return resp, nil
}

// admit finds or creates an instance with a free HTTP concurrency slot,
// waiting for capacity up to the queue timeout. The wait is measured in
// virtual time so queueing delay is part of the latency model. A platform
// that closes ends the wait with ErrClosed: nothing can free a slot any
// more, and on a closed clock every poll would return at the same instant.
func (d *Deployment) admit(tc *trace.Ctx) (*Instance, error) {
	p := d.p
	clk := p.clk
	deadline := clk.Now().Add(invokeQueueTimeout)
	for {
		// 1. A warm instance with a free slot.
		if inst := d.pickWarm(); inst != nil {
			return inst, nil
		}
		// 2. Scale out.
		if inst := d.provisionT(true, tc); inst != nil {
			return inst, nil
		}
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		// 3. Wait for a slot or capacity to free, polling every 10 ms for
		// one that freed while no waiter was parked.
		remain := deadline.Sub(clk.Now())
		if remain <= 0 {
			return nil, ErrNoCapacity
		}
		d.slotFreed.RecvBy(clock.DeadlineIn(clk, min(remain, 10*time.Millisecond)))
	}
}

// pickWarm returns the warm instance with the most free HTTP slots.
func (d *Deployment) pickWarm() *Instance {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *Instance
	bestFree := 0
	for _, inst := range d.instances {
		if !inst.started {
			continue
		}
		free := d.opts.ConcurrencyLevel - inst.httpInFlight
		if free > bestFree {
			best, bestFree = inst, free
		}
	}
	if best != nil {
		best.httpInFlight++
	}
	return best
}

// provision creates a new instance when resources allow, charging the
// cold start to the caller when chargeColdStart is set. Returns nil when
// the deployment is capped or the pool is exhausted. On success the
// instance is returned with one HTTP slot pre-claimed when
// chargeColdStart is true.
func (d *Deployment) provision(chargeColdStart bool) *Instance {
	return d.provisionT(chargeColdStart, nil)
}

// provisionT is provision with the requesting invocation's trace context
// (nil outside traced request paths); the cold start becomes a span on the
// trace and a cold_start event on the platform tracer.
func (d *Deployment) provisionT(chargeColdStart bool, tc *trace.Ctx) *Instance {
	p := d.p
	if p.cfg.OnProvision != nil && !p.cfg.OnProvision(d.index) {
		p.cfg.Tracer.Emit(trace.Event{
			Type: trace.EventChaosFault, Deployment: d.index,
			Detail: "provision denied",
		})
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if d.opts.MaxInstances > 0 && d.aliveCount() >= d.opts.MaxInstances {
		p.mu.Unlock()
		return nil
	}

	limit := p.cfg.TotalVCPU * p.cfg.MaxUtilization
	if p.vcpuUsed+d.opts.VCPU > limit || p.ramUsed+d.opts.RAMGB > p.cfg.TotalRAMGB {
		// Evict the longest-idle instance elsewhere, as OpenWhisk does on
		// a resource-bounded cluster (the private-cloud thrashing regime
		// of Appendix C): without it, deployments that lose the initial
		// provisioning race starve behind a fully-committed pool.
		if !p.evictIdleLocked(d) {
			p.mu.Unlock()
			return nil
		}
		if p.vcpuUsed+d.opts.VCPU > limit || p.ramUsed+d.opts.RAMGB > p.cfg.TotalRAMGB {
			p.mu.Unlock()
			return nil
		}
	}
	p.vcpuUsed += d.opts.VCPU
	p.ramUsed += d.opts.RAMGB
	p.peakVCPU = max(p.peakVCPU, p.vcpuUsed)
	p.instSeq++
	id := fmt.Sprintf("%s/i%04d", d.name, p.instSeq)
	p.mu.Unlock()
	p.tel.coldStarts.Inc()
	p.tel.coldStartSec.Add(p.cfg.ColdStart.Seconds())

	inst := newInstance(d, id)
	if chargeColdStart {
		inst.httpInFlight = 1
	}
	d.mu.Lock()
	d.instances = append(d.instances, inst)
	d.peakInstances = max(d.peakInstances, len(d.instances))
	d.mu.Unlock()

	p.cfg.Tracer.Emit(trace.Event{
		Type: trace.EventColdStart, Deployment: d.index, Instance: id,
		Dur: p.cfg.ColdStart,
	})
	csp := tc.Start(trace.KindColdStart)
	csp.SetDeployment(d.index)
	csp.SetInstance(id)
	p.clk.Sleep(p.cfg.ColdStart)
	csp.End()
	inst.start()
	return inst
}

// evictIdleLocked terminates the longest-idle, currently-unused instance
// of any other deployment. Caller holds p.mu.
func (p *Platform) evictIdleLocked(requester *Deployment) bool {
	var victim *Instance
	var victimIdle time.Duration
	now := p.clk.Now()
	for _, d := range p.deployments {
		if d == requester {
			continue
		}
		d.mu.Lock()
		// Never evict a deployment down to zero (or below its pre-warmed
		// floor): that trades one starvation for another.
		if alive := len(d.instances); alive > d.opts.MinInstances && alive > 1 {
			for _, inst := range d.instances {
				if inst.busy() {
					continue
				}
				idle := now.Sub(inst.lastActive)
				if victim == nil || idle > victimIdle {
					victim, victimIdle = inst, idle
				}
			}
		}
		d.mu.Unlock()
	}
	if victim == nil {
		return false
	}
	// Mark the victim draining so fault injection does not double-kill an
	// instance already on its way out (p.mu → d.mu is the lock order).
	victim.d.mu.Lock()
	victim.draining = true
	victim.d.mu.Unlock()
	p.tel.evictions.Inc()
	p.cfg.Tracer.Emit(trace.Event{
		Type: trace.EventEvict, Deployment: victim.d.index, Instance: victim.id,
		Dur:    victimIdle,
		Detail: "evicted for " + requester.name,
	})
	// terminate releases resources; it re-acquires p.mu, so drop it.
	p.mu.Unlock()
	victim.terminate(false)
	p.mu.Lock() //vet:allow locks relock restores the caller's critical section — the caller owns p.mu across this call and unlocks it
	return true
}

// reclaimLoop periodically scales idle instances in.
func (p *Platform) reclaimLoop() {
	for {
		if !clock.SleepOr(p.clk, reclaimInterval, p.stopReclaim) {
			return
		}
		if p.cfg.IdleReclaim <= 0 {
			continue
		}
		now := p.clk.Now()
		p.mu.Lock()
		deps := append([]*Deployment(nil), p.deployments...)
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
		for _, d := range deps {
			d.mu.Lock()
			var victims []*Instance
			alive := len(d.instances)
			for _, inst := range d.instances {
				if alive <= d.opts.MinInstances {
					break
				}
				if !inst.busy() && now.Sub(inst.lastActive) > p.cfg.IdleReclaim {
					inst.draining = true
					victims = append(victims, inst)
					alive--
				}
			}
			d.mu.Unlock()
			for _, v := range victims {
				p.tel.reclamations.Inc()
				p.cfg.Tracer.Emit(trace.Event{
					Type: trace.EventReclaim, Deployment: d.index, Instance: v.id,
					Dur: now.Sub(v.lastActive),
				})
				v.terminate(false)
			}
		}
	}
}

// KillOneInstance abruptly terminates an arbitrary live instance of
// deployment dep (fault injection for §5.6). Reports whether an instance
// was killed. Safe to call from unregistered goroutines.
func (p *Platform) KillOneInstance(dep int) bool {
	var ok bool
	clock.Run(p.clk, func() { ok = p.killOneInstance(dep) })
	return ok
}

func (p *Platform) killOneInstance(dep int) bool {
	d := p.Deployment(dep)
	if d == nil {
		return false
	}
	d.mu.Lock()
	var victim *Instance
	for _, inst := range d.instances {
		// Skip instances already draining (selected for reclaim or
		// eviction): their termination is in flight, so "killing" them
		// would report a fault injection that changed nothing.
		if !inst.draining {
			victim = inst
			break
		}
	}
	d.mu.Unlock()
	if victim == nil {
		return false
	}
	p.tel.kills.Inc()
	p.cfg.Tracer.Emit(trace.Event{
		Type: trace.EventKill, Deployment: d.index, Instance: victim.id,
	})
	victim.terminate(true)
	return true
}

// Warm returns the live instances of deployment d (used by the TCP RPC
// fabric to find connectable NameNodes).
func (d *Deployment) Warm() []*Instance {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Instance, 0, len(d.instances))
	for _, inst := range d.instances {
		if inst.started {
			out = append(out, inst)
		}
	}
	return out
}

// Index returns the deployment's index on the platform.
func (d *Deployment) Index() int { return d.index }

// aliveCount is the number of live instances: terminate prunes an instance
// from d.instances in the critical section that marks it terminated, so
// under d.mu every member is alive.
func (d *Deployment) aliveCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.instances)
}

// AliveInstances returns the number of live instances of d.
func (d *Deployment) AliveInstances() int { return d.aliveCount() }

// ActiveInstances returns the total live instance count.
func (p *Platform) ActiveInstances() int {
	p.mu.Lock()
	deps := append([]*Deployment(nil), p.deployments...)
	p.mu.Unlock()
	n := 0
	for _, d := range deps {
		n += d.aliveCount()
	}
	return n
}

// WarmInstances returns the number of live instances with no request in
// flight — the warm pool available to absorb load without a cold start.
func (p *Platform) WarmInstances() int {
	p.mu.Lock()
	deps := append([]*Deployment(nil), p.deployments...)
	p.mu.Unlock()
	n := 0
	for _, d := range deps {
		d.mu.Lock()
		for _, inst := range d.instances {
			if !inst.busy() {
				n++
			}
		}
		d.mu.Unlock()
	}
	return n
}

// VCPUInUse returns the currently provisioned vCPUs.
func (p *Platform) VCPUInUse() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vcpuUsed
}

// Stats returns the platform counters, read out of the registry, with the
// pool's vCPU high-water mark and per-deployment instance counts and marks
// taken under the platform mutex (deployment marks under each deployment's
// mutex, in the established p.mu → d.mu order). Each counter is one atomic
// load; the counters are not read at one common instant with each other or
// with the pool state (on clock.Sim only one goroutine runs at a time, so
// there a snapshot between operations is exact anyway).
func (p *Platform) Stats() Stats {
	s := Stats{
		Invocations:   uint64(p.tel.invocations.Value()),
		ColdStarts:    uint64(p.tel.coldStarts.Value()),
		ColdStartTime: time.Duration(math.Round(p.tel.coldStartSec.Value() * 1e9)),
		Reclamations:  uint64(p.tel.reclamations.Value()),
		Evictions:     uint64(p.tel.evictions.Value()),
		Kills:         uint64(p.tel.kills.Value()),
		Rejections:    uint64(p.tel.rejections.Value()),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s.PeakVCPUUsed = p.peakVCPU
	s.Deployments = make([]DeploymentStats, len(p.deployments))
	for i, d := range p.deployments {
		d.mu.Lock()
		s.Deployments[i] = DeploymentStats{
			Name: d.name, Alive: len(d.instances), PeakInstances: d.peakInstances,
		}
		d.mu.Unlock()
	}
	return s
}

// Clock returns the platform's clock (Apps use it for timers).
func (p *Platform) Clock() *clock.Sim { return p.clk }

// Close terminates every instance and stops the reclaimer. Safe to call
// from unregistered goroutines.
func (p *Platform) Close() {
	clock.Run(p.clk, p.closeInner)
}

func (p *Platform) closeInner() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.stopReclaim.Set()
	deps := append([]*Deployment(nil), p.deployments...)
	p.mu.Unlock()
	for _, d := range deps {
		d.mu.Lock()
		insts := append([]*Instance(nil), d.instances...)
		d.mu.Unlock()
		for _, inst := range insts {
			inst.terminate(false)
		}
	}
}
