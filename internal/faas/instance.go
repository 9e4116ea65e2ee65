package faas

import (
	"errors"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/trace"
)

// ErrInstanceDead reports a request sent to a terminated instance (the TCP
// fabric translates it into a dropped-connection error).
var ErrInstanceDead = errors.New("faas: instance terminated")

// Instance is one running serverless function container. All mutable
// state is guarded by the owning deployment's mutex.
type Instance struct {
	d   *Deployment
	id  string
	app App

	// Guarded by d.mu.
	started      bool
	terminated   bool
	draining     bool // selected for reclaim/eviction, terminate in flight
	httpInFlight int
	busyCount    int
	lastActive   time.Time
	activeStart  time.Time
	createdAt    time.Time

	term *clock.Event // set when the instance dies
	cpu  *clock.Queue // the instance's vCPUs
}

func newInstance(d *Deployment, id string) *Instance {
	return &Instance{
		d:         d,
		id:        id,
		createdAt: d.p.clk.Now(),
		term:      clock.NewEvent(d.p.clk),
		cpu:       clock.NewCPUQueue(d.p.clk, d.opts.VCPU),
	}
}

// start instantiates the app after the cold start completed. An instance
// killed while it was still starting never saw terminate's Shutdown (there
// was no app yet), so it gets it here: exactly one Shutdown per app either
// way. It did no work, so the shutdown is a graceful one.
func (inst *Instance) start() {
	inst.app = inst.d.factory(inst)
	d := inst.d
	d.mu.Lock()
	inst.started = true
	inst.lastActive = d.p.clk.Now()
	dead := inst.terminated
	d.mu.Unlock()
	if dead {
		inst.app.Shutdown(false)
	}
}

// ID returns the instance's unique identifier.
func (inst *Instance) ID() string { return inst.id }

// App returns the app the instance runs (nil before its cold start ends).
func (inst *Instance) App() App { return inst.app }

// DeploymentIndex returns the index of the owning deployment.
func (inst *Instance) DeploymentIndex() int { return inst.d.index }

// Alive reports liveness.
func (inst *Instance) Alive() bool {
	inst.d.mu.Lock()
	defer inst.d.mu.Unlock()
	return !inst.terminated
}

// busy reports in-flight requests; caller holds d.mu.
func (inst *Instance) busy() bool { return inst.busyCount > 0 }

// AcquireCPU charges dur of instance CPU time, queueing behind other work
// on this instance — the per-instance compute capacity model. It returns
// early, at the kill instant, when the instance terminates first.
func (inst *Instance) AcquireCPU(dur time.Duration) {
	if dur <= 0 {
		return
	}
	clk := inst.d.p.clk
	wait, service := inst.cpu.Reserve(clk.Now(), dur)
	clock.SleepOr(clk, wait+service, inst.term)
}

// beginRequest accounts a request start; reports false when the instance
// is dead.
func (inst *Instance) beginRequest() bool {
	d := inst.d
	now := d.p.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if inst.terminated {
		return false
	}
	inst.busyCount++
	if inst.busyCount == 1 {
		inst.activeStart = now
	}
	inst.lastActive = now
	return true
}

// endRequest accounts a request end, billing the active span when the
// instance goes idle.
func (inst *Instance) endRequest(http bool) {
	d := inst.d
	p := d.p
	now := p.clk.Now()
	var billFrom time.Time
	var bill bool
	d.mu.Lock()
	slotFreed := http && inst.httpInFlight > 0
	if slotFreed {
		inst.httpInFlight--
	}
	if inst.busyCount > 0 {
		inst.busyCount--
		if inst.busyCount == 0 {
			billFrom = inst.activeStart
			bill = true
		}
	}
	inst.lastActive = now
	d.mu.Unlock()
	if bill && p.cfg.Lambda != nil {
		p.cfg.Lambda.BillActive(billFrom, now.Sub(billFrom), d.opts.RAMGB)
	}
	if slotFreed {
		d.slotFreed.Offer(struct{}{})
	}
}

// serveHTTP runs one HTTP invocation; the admission slot was already
// claimed by the gateway.
func (inst *Instance) serveHTTP(payload any) any {
	if !inst.beginRequest() {
		// Terminated between admission and execution: the platform
		// retries admission.
		if retry := inst.d; retry != nil {
			if next, err := retry.admit(nil); err == nil {
				return next.serveHTTP(payload)
			}
		}
		return nil
	}
	defer inst.endRequest(true)
	p := inst.d.p
	if hook := p.cfg.OnInvoke; hook != nil && hook(inst.d.index, inst.id) {
		// Fault injection: the instance dies mid-invocation. The request is
		// dropped (nil response → client-side unavailable + retry) and the
		// app's Shutdown(crashed) runs, exactly as for KillOneInstance.
		p.tel.kills.Inc()
		p.cfg.Tracer.Emit(trace.Event{
			Type: trace.EventKill, Deployment: inst.d.index, Instance: inst.id,
			Detail: "mid-invocation",
		})
		inst.terminate(true)
		return nil
	}
	resp := inst.app.HandleInvoke(payload)
	if inst.term.IsSet() {
		// Killed while it ran: the invocation is dropped with its reply.
		return nil
	}
	return resp
}

// Serve runs fn as a TCP-path request on this instance: it bypasses the
// gateway and HTTP admission but is billed and CPU-accounted identically.
// An instance killed while fn ran loses the connection, and fn's reply
// with it.
func (inst *Instance) Serve(fn func() any) (any, error) {
	if !inst.beginRequest() {
		return nil, ErrInstanceDead
	}
	defer inst.endRequest(false)
	v := fn()
	if inst.term.IsSet() {
		return nil, ErrInstanceDead
	}
	return v, nil
}

// terminate tears the instance down: releases pool resources, bills
// remaining active and provisioned time, runs the app's Shutdown, and
// wakes admission waiters.
func (inst *Instance) terminate(crashed bool) {
	d := inst.d
	p := d.p
	now := p.clk.Now()

	d.mu.Lock()
	if inst.terminated {
		d.mu.Unlock()
		return
	}
	inst.terminated = true
	wasBusySince := inst.activeStart
	wasBusy := inst.busyCount > 0
	started := inst.started
	// Prune from the deployment's instance list.
	for i, other := range d.instances {
		if other == inst {
			d.instances = append(d.instances[:i], d.instances[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
	inst.term.Set()

	p.mu.Lock()
	p.vcpuUsed -= d.opts.VCPU
	p.ramUsed -= d.opts.RAMGB
	deps := append([]*Deployment(nil), p.deployments...)
	p.mu.Unlock()

	if wasBusy && p.cfg.Lambda != nil {
		p.cfg.Lambda.BillActive(wasBusySince, now.Sub(wasBusySince), d.opts.RAMGB)
	}
	if p.cfg.Provisioned != nil {
		p.cfg.Provisioned.BillProvisioned(inst.createdAt, now.Sub(inst.createdAt), d.opts.RAMGB)
	}
	if started && inst.app != nil {
		inst.app.Shutdown(crashed)
	}
	// Freed capacity may unblock any deployment's admission queue.
	for _, other := range deps {
		other.slotFreed.Offer(struct{}{})
	}
}
