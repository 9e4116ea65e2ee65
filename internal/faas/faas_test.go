package faas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// echoApp is a trivial App that records invocations and can block.
type echoApp struct {
	inst     *Instance
	invokes  atomic.Int64
	shutdown atomic.Int64
	crashed  atomic.Bool
	block    *clock.Event // when non-nil, HandleInvoke parks on it
	cpu      time.Duration
}

func (a *echoApp) HandleInvoke(payload any) any {
	a.invokes.Add(1)
	if a.cpu > 0 {
		a.inst.AcquireCPU(a.cpu)
	}
	if a.block != nil {
		a.block.Wait()
	}
	return payload
}

func (a *echoApp) Shutdown(crashed bool) {
	a.shutdown.Add(1)
	if crashed {
		a.crashed.Store(true)
	}
}

type appTracker struct {
	mu   sync.Mutex
	apps []*echoApp
}

func (t *appTracker) factory(block *clock.Event, cpu time.Duration) AppFactory {
	return func(inst *Instance) App {
		a := &echoApp{inst: inst, block: block, cpu: cpu}
		t.mu.Lock()
		t.apps = append(t.apps, a)
		t.mu.Unlock()
		return a
	}
}

func (t *appTracker) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, a := range t.apps {
		n += a.invokes.Load()
	}
	return n
}

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.ColdStart = 0
	cfg.GatewayLatency = 0
	cfg.IdleReclaim = 0 // no reclamation unless a test enables it
	return cfg
}

func TestInvokeProvisionsAndRoutes(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 4, RAMGB: 8, ConcurrencyLevel: 4})
		resp, err := d.Invoke("hello")
		if err != nil || resp != "hello" {
			t.Fatalf("invoke: %v %v", resp, err)
		}
		if d.AliveInstances() != 1 {
			t.Fatalf("instances = %d", d.AliveInstances())
		}
		// Second invocation reuses the warm instance.
		if _, err := d.Invoke("again"); err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().ColdStarts; got != 1 {
			t.Fatalf("cold starts = %d, want 1", got)
		}
		if tr.total() != 2 {
			t.Fatalf("invokes = %d", tr.total())
		}
	})
}

func TestScaleOutWhenConcurrencyFull(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		block := clock.NewEvent(clk)
		d := p.Register("nn0", tr.factory(block, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1})

		const n = 5
		wg := clock.NewGroup(clk)
		for i := 0; i < n; i++ {
			wg.Go(func() {
				if _, err := d.Invoke("x"); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		// Each in-flight blocked invocation occupies one instance entirely
		// (concurrency 1), so the platform must scale to n instances.
		clk.Sleep(time.Millisecond) // every invocation is parked in its app by now
		if got := d.AliveInstances(); got != n {
			t.Fatalf("scaled to %d instances, want %d", got, n)
		}
		block.Set()
		wg.Wait()
	})
}

func TestMaxInstancesCapsScaleOut(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.InvokeQueueTimeout = 100 * time.Millisecond
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		block := clock.NewEvent(clk)
		d := p.Register("nn0", tr.factory(block, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1, MaxInstances: 2})

		results := clock.NewMailbox[error](clk)
		for i := 0; i < 4; i++ {
			clock.Go(clk, func() {
				_, err := d.Invoke("x")
				results.Send(err)
			})
		}
		for i := 0; i < 2; i++ { // two are shed, when their admission wait runs out
			if err := results.Recv(); err != ErrNoCapacity {
				t.Fatalf("first results = %v, want ErrNoCapacity while the app blocks", err)
			}
			if at := clk.Since(clock.Epoch); at != cfg.InvokeQueueTimeout {
				t.Fatalf("shed at %v, want the queue timeout %v", at, cfg.InvokeQueueTimeout)
			}
		}
		if d.AliveInstances() > 2 {
			t.Fatalf("instances = %d exceeds MaxInstances", d.AliveInstances())
		}
		block.Set()
		for i := 0; i < 2; i++ {
			if err := results.Recv(); err != nil {
				t.Fatalf("admitted invocation failed after unblock: %v", err)
			}
		}
	})
}

func TestResourcePoolBoundsProvisioning(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.TotalVCPU = 8
		cfg.MaxUtilization = 1
		cfg.InvokeQueueTimeout = 100 * time.Millisecond
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		block := clock.NewEvent(clk)
		d := p.Register("nn0", tr.factory(block, 0), DeploymentOptions{VCPU: 4, RAMGB: 1, ConcurrencyLevel: 1})

		results := clock.NewMailbox[error](clk)
		for i := 0; i < 3; i++ {
			clock.Go(clk, func() {
				_, err := d.Invoke("x")
				results.Send(err)
			})
		}
		// Only 2 instances fit in 8 vCPUs; the third invocation is shed.
		if err := results.Recv(); err != ErrNoCapacity {
			t.Fatalf("first result = %v, want ErrNoCapacity", err)
		}
		if at := clk.Since(clock.Epoch); at != cfg.InvokeQueueTimeout {
			t.Fatalf("shed at %v, want the queue timeout %v", at, cfg.InvokeQueueTimeout)
		}
		if p.VCPUInUse() > 8 {
			t.Fatalf("vCPU in use %v exceeds pool", p.VCPUInUse())
		}
		block.Set()
		for i := 0; i < 2; i++ {
			if err := results.Recv(); err != nil {
				t.Fatalf("invocation failed: %v", err)
			}
		}
	})
}

func TestMaxUtilizationBound(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.TotalVCPU = 10
		cfg.MaxUtilization = 0.5
		cfg.InvokeQueueTimeout = 80 * time.Millisecond
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		block := clock.NewEvent(clk)
		d := p.Register("nn0", tr.factory(block, 0), DeploymentOptions{VCPU: 5, RAMGB: 1, ConcurrencyLevel: 1})
		invokes := clock.NewGroup(clk)
		invokes.Go(func() { d.Invoke("a") })
		invokes.Go(func() { d.Invoke("b") })
		clk.Sleep(50 * time.Millisecond)
		if p.VCPUInUse() > 5 {
			t.Fatalf("utilization bound violated: %v vCPU in use", p.VCPUInUse())
		}
		block.Set()
		invokes.Wait()
	})
}

func TestIdleReclaimScalesIn(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.IdleReclaim = 50 * time.Millisecond
		cfg.ReclaimInterval = 10 * time.Millisecond
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4})
		if _, err := d.Invoke("x"); err != nil {
			t.Fatal(err)
		}
		// Idle since 0: the reclaimer's ticks up to 50ms leave it (idle for
		// no longer than IdleReclaim), the one at 60ms takes it.
		clk.Sleep(55 * time.Millisecond)
		if d.AliveInstances() != 1 {
			t.Fatal("instance reclaimed before it had been idle for longer than IdleReclaim")
		}
		clk.Sleep(10 * time.Millisecond)
		if d.AliveInstances() != 0 {
			t.Fatal("idle instance was not reclaimed")
		}
		if p.Stats().Reclamations == 0 {
			t.Fatal("reclaim not counted")
		}
		if tr.apps[0].shutdown.Load() != 1 || tr.apps[0].crashed.Load() {
			t.Fatal("graceful shutdown expected exactly once")
		}
	})
}

func TestMinInstancesPrewarmedAndKept(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.IdleReclaim = 20 * time.Millisecond
		cfg.ReclaimInterval = 10 * time.Millisecond
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4, MinInstances: 2})
		if d.AliveInstances() != 2 {
			t.Fatalf("prewarmed %d, want 2", d.AliveInstances())
		}
		clk.Sleep(100 * time.Millisecond) // ten reclaim ticks, five IdleReclaims
		if d.AliveInstances() != 2 {
			t.Fatalf("reclaimer violated MinInstances: %d", d.AliveInstances())
		}
	})
}

func TestKillOneInstance(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4, MinInstances: 1})
		if !p.KillOneInstance(0) {
			t.Fatal("kill failed")
		}
		if d.AliveInstances() != 0 {
			t.Fatal("instance survived kill")
		}
		if !tr.apps[0].crashed.Load() {
			t.Fatal("kill should report crashed shutdown")
		}
		if p.KillOneInstance(0) {
			t.Fatal("kill succeeded with no instances")
		}
		if p.KillOneInstance(99) {
			t.Fatal("kill succeeded on unknown deployment")
		}
	})
}

func TestTerminatedChannelAndServe(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4, MinInstances: 1})
		insts := d.Warm()
		if len(insts) != 1 {
			t.Fatalf("warm = %d", len(insts))
		}
		inst := insts[0]
		resp, err := inst.Serve(func() any { return 42 })
		if err != nil || resp != 42 {
			t.Fatalf("serve: %v %v", resp, err)
		}
		p.KillOneInstance(0)
		if !inst.term.IsSet() {
			t.Fatal("Terminated event not set")
		}
		if _, err := inst.Serve(func() any { return 0 }); err != ErrInstanceDead {
			t.Fatalf("serve on dead instance: %v", err)
		}
	})
}

func TestCPUCapacityLimitsThroughput(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// One instance with 1 vCPU and 10ms/op takes 100ms virtual for 10
		// sequentially-queued ops even when issued concurrently.
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 10*time.Millisecond), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 16, MaxInstances: 1, MinInstances: 1})
		start := clk.Now()
		wg := clock.NewGroup(clk)
		for i := 0; i < 10; i++ {
			wg.Go(func() {
				if _, err := d.Invoke("x"); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		wg.Wait()
		if got := clk.Since(start); got != 100*time.Millisecond {
			t.Fatalf("10 ops × 10ms CPU on 1 vCPU took %v virtual, want 100ms", got)
		}
	})
}

// TestAcquireCPUReturnsAtKillInstant: a caller in service and a caller
// still waiting for the instance's one vCPU are both released the moment
// the instance is killed — not when their reserved slots would have ended
// — and a dead instance charges nothing.
func TestAcquireCPUReturnsAtKillInstant(t *testing.T) {
	sim := simtest.New(t)
	p := New(sim, fastCfg())
	defer p.Close()
	tr := &appTracker{}
	var returned [2]time.Duration
	var late time.Duration
	clock.Run(sim, func() {
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4, MinInstances: 1})
		inst := d.Warm()[0]
		g := clock.NewGroup(sim)
		for i := range returned {
			g.Go(func() {
				inst.AcquireCPU(10 * time.Millisecond) // slots [0,10ms) and [10ms,20ms)
				returned[i] = sim.Since(clock.Epoch)
			})
		}
		sim.Sleep(4 * time.Millisecond)
		if !p.KillOneInstance(0) {
			t.Error("kill failed")
		}
		g.Wait()
		inst.AcquireCPU(time.Second)
		late = sim.Since(clock.Epoch)
	})
	for i, at := range returned {
		if at != 4*time.Millisecond {
			t.Errorf("caller %d returned at %v, want the kill instant 4ms", i, at)
		}
	}
	if late != 4*time.Millisecond {
		t.Errorf("AcquireCPU on the dead instance returned at %v, want 4ms (no charge)", late)
	}
}

// TestAdmissionWakesOnlyOnFreedCapacity: an invocation queued for admission
// re-runs its admission pass — which consults the OnProvision hook, and can
// evict — once per 10 ms poll and once when an HTTP slot or pool capacity
// really frees, at that instant. Requests that end without freeing an HTTP
// slot (every TCP request) while nobody is queued must not leave wake-ups
// behind for the next waiter to burn through.
func TestAdmissionWakesOnlyOnFreedCapacity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		holds    time.Duration // how long the first invocation keeps the only HTTP slot
		err      error
		returns  time.Duration // when the queued invocation comes back
		consults int64
	}{
		// Queued at 1ms: passes at 1, 11, 21, 31ms, woken at 35ms into a free slot, served by 70ms.
		{"slot frees", 35 * time.Millisecond, nil, 70 * time.Millisecond, 4},
		// Passes at 1, 11, … 101ms, the last one finding the 100ms queue timeout spent.
		{"queue timeout", time.Second, ErrNoCapacity, 101 * time.Millisecond, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simtest.New(t)
			cfg := fastCfg()
			cfg.TotalVCPU, cfg.MaxUtilization, cfg.EvictForSpace = 1, 1, false
			cfg.InvokeQueueTimeout = 100 * time.Millisecond
			var consults atomic.Int64
			cfg.OnProvision = func(int) bool { consults.Add(1); return true }
			p := New(sim, cfg)
			defer p.Close()
			tr := &appTracker{}
			var err error
			var returned time.Duration
			clock.Run(sim, func() {
				d := p.Register("nn0", tr.factory(nil, tc.holds), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1, MinInstances: 1})
				inst := d.Warm()[0] // fills the one-vCPU pool
				for i := 0; i < 50; i++ {
					if _, err := inst.Serve(func() any { return nil }); err != nil {
						t.Error(err)
					}
				}
				consults.Store(0)
				clock.Go(sim, func() { _, _ = d.Invoke("holder") })
				sim.Sleep(time.Millisecond)
				_, err = d.Invoke("queued")
				returned = sim.Since(clock.Epoch)
			})
			if err != tc.err || returned != tc.returns {
				t.Errorf("queued invocation returned %v at %v, want %v at %v", err, returned, tc.err, tc.returns)
			}
			if got := consults.Load(); got != tc.consults {
				t.Errorf("%d admission passes consulted OnProvision, want %d: one per poll, none per stale wake-up", got, tc.consults)
			}
		})
	}
}

func TestBillingActiveTime(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		lm := metrics.NewLambdaMeter(clock.Epoch)
		pm := metrics.NewProvisionedMeter(clock.Epoch)
		cfg.Lambda = lm
		cfg.Provisioned = pm
		p := New(clk, cfg)
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 20*time.Millisecond), DeploymentOptions{VCPU: 1, RAMGB: 2, ConcurrencyLevel: 4})
		if _, err := d.Invoke("x"); err != nil {
			t.Fatal(err)
		}
		if lm.Requests() != 1 {
			t.Fatalf("billed requests = %d", lm.Requests())
		}
		if lm.TotalUSD() <= 0 {
			t.Fatal("no active-time cost billed")
		}
		p.Close()
		if pm.TotalUSD() <= 0 {
			t.Fatal("no provisioned cost billed at termination")
		}
		// Active-billed time must not exceed provisioned time.
		if lm.TotalUSD()-float64(lm.Requests())*metrics.LambdaPerRequestUSD > pm.TotalUSD()*1.5 {
			t.Fatalf("active cost %v exceeds provisioned cost %v", lm.TotalUSD(), pm.TotalUSD())
		}
	})
}

// TestEvictForSpace: eviction makes room for a hot deployment out of
// another one's idle instances, but never shrinks it below its MinInstances
// floor (or below one) — then the invocation is shed when its admission
// wait runs out, at exactly that virtual instant.
func TestEvictForSpace(t *testing.T) {
	cfg := fastCfg()
	cfg.TotalVCPU = 8
	cfg.MaxUtilization = 1
	cfg.EvictForSpace = true
	opts := DeploymentOptions{VCPU: 4, RAMGB: 1, ConcurrencyLevel: 1}
	for _, tc := range []struct {
		name      string
		floor     int
		err       error
		returns   time.Duration
		idleLeft  int
		evictions uint64
	}{
		{"at the floor", 2, ErrNoCapacity, cfg.InvokeQueueTimeout, 2, 0},
		{"above the floor", 1, nil, 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simtest.New(t)
			p := New(sim, cfg)
			defer p.Close()
			tr := &appTracker{}
			clock.Run(sim, func() {
				idleOpts := opts
				idleOpts.MinInstances = tc.floor
				idle := p.Register("idle", tr.factory(nil, time.Millisecond), idleOpts)
				// Two concurrent requests on one-slot instances: the
				// deployment holds two instances, the whole pool, whatever
				// its floor; both are idle again afterwards.
				g := clock.NewGroup(sim)
				for i := 0; i < 2; i++ {
					g.Go(func() {
						if _, err := idle.Invoke(i); err != nil {
							t.Errorf("filling the pool: %v", err)
						}
					})
				}
				g.Wait()
				if idle.AliveInstances() != 2 {
					t.Errorf("pool filled with %d instances, want 2", idle.AliveInstances())
					return
				}
				hot := p.Register("hot", tr.factory(nil, 0), opts)
				start := sim.Now()
				_, err := hot.Invoke("x")
				if err != tc.err {
					t.Errorf("Invoke = %v, want %v", err, tc.err)
				}
				if at := sim.Since(start); at != tc.returns {
					t.Errorf("Invoke returned after %v, want %v", at, tc.returns)
				}
				if got, ev := idle.AliveInstances(), p.Stats().Evictions; got != tc.idleLeft || ev != tc.evictions {
					t.Errorf("%d idle instances after %d evictions, want %d after %d", got, ev, tc.idleLeft, tc.evictions)
				}
			})
		})
	}
}

func TestInvokeUnknownDeployment(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		if _, err := p.Invoke(3, "x"); err != ErrNoDeployment {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestCloseRejectsInvocations(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1})
		p.Close()
		if _, err := d.Invoke("x"); err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
		p.Close() // idempotent
	})
}

// TestCloseEndsQueuedAdmission: an invocation queued in admission behind a
// deployment at its cap comes back with ErrClosed at the instant the
// platform closes, not at its queue timeout (and not never: on a closed
// clock every poll of the wait returns at once, so a waiter that kept
// polling would spin at one instant).
func TestCloseEndsQueuedAdmission(t *testing.T) {
	sim := simtest.New(t)
	cfg := fastCfg()
	cfg.InvokeQueueTimeout = time.Second
	p := New(sim, cfg)
	tr := &appTracker{}
	const closeAt = 5 * time.Millisecond
	var err error
	var returned time.Duration
	clock.Run(sim, func() {
		// The holder keeps the one slot of the one instance the cap allows
		// until the close kills it.
		d := p.Register("nn0", tr.factory(nil, time.Minute), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1, MaxInstances: 1, MinInstances: 1})
		clock.Go(sim, func() { _, _ = d.Invoke("holder") })
		queued := clock.NewEvent(sim)
		clock.Go(sim, func() {
			_, err = d.Invoke("queued")
			returned = sim.Since(clock.Epoch)
			queued.Set()
		})
		sim.Sleep(closeAt)
		p.Close()
		queued.Wait()
	})
	if err != ErrClosed || returned != closeAt {
		t.Errorf("queued invocation returned %v at %v, want %v at the close, %v", err, returned, ErrClosed, closeAt)
	}
	if s := p.Stats(); s.Rejections != 0 {
		t.Errorf("rejections = %d, want 0: a close sheds nothing", s.Rejections)
	}
}

func TestManyDeploymentsParallelInvokes(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		const deps = 8
		for i := 0; i < deps; i++ {
			p.Register(fmt.Sprintf("nn%d", i), tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 4})
		}
		wg := clock.NewGroup(clk)
		for i := 0; i < 200; i++ {
			wg.Go(func() {
				if _, err := p.Invoke(i%deps, i); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		wg.Wait()
		if tr.total() != 200 {
			t.Fatalf("total invokes = %d", tr.total())
		}
		if p.Deployments() != deps {
			t.Fatalf("deployments = %d", p.Deployments())
		}
	})
}

func TestNuclioProfile(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		owCfg := DefaultConfig()
		nuCfg := NuclioConfig()
		if nuCfg.ColdStart >= owCfg.ColdStart {
			t.Fatal("Nuclio profile should have faster cold starts")
		}
		if nuCfg.GatewayLatency >= owCfg.GatewayLatency {
			t.Fatal("Nuclio profile should have a lighter gateway")
		}
		// The profile must be a drop-in: same control loop, working end to end.
		nuCfg.ColdStart = 0
		nuCfg.GatewayLatency = 0
		nuCfg.IdleReclaim = 0
		p := New(clk, nuCfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("fn", tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 2})
		if resp, err := d.Invoke("ping"); err != nil || resp != "ping" {
			t.Fatalf("nuclio-profile invoke: %v %v", resp, err)
		}
	})
}

// TestConcurrentInvokeStats hammers two deployments from many goroutines
// and checks the extended Stats snapshot stays internally consistent:
// cumulative cold-start time, per-deployment instance high-water marks,
// and structured cold-start events all line up with the counters.
func TestConcurrentInvokeStats(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.ColdStart = 2 * time.Millisecond
		evTr := trace.New(clk, trace.Config{})
		cfg.Tracer = evTr
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		const deps = 2
		for i := 0; i < deps; i++ {
			p.Register(fmt.Sprintf("nn%d", i), tr.factory(nil, 0), DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 2})
		}
		wg := clock.NewGroup(clk)
		for i := 0; i < 64; i++ {
			wg.Go(func() {
				for j := 0; j < 4; j++ {
					if _, err := p.Invoke(i%deps, i); err != nil {
						t.Errorf("invoke: %v", err)
					}
					// Concurrent Stats reads must observe a coherent snapshot.
					st := p.Stats()
					if st.ColdStartTime != time.Duration(st.ColdStarts)*cfg.ColdStart {
						t.Errorf("cold start time %v != %d starts * %v",
							st.ColdStartTime, st.ColdStarts, cfg.ColdStart)
					}
				}
			})
		}
		wg.Wait()
		if tr.total() != 64*4 {
			t.Fatalf("total invokes = %d", tr.total())
		}
		st := p.Stats()
		if st.ColdStarts == 0 || st.ColdStartTime == 0 {
			t.Fatalf("no cold starts recorded: %+v", st)
		}
		if len(st.Deployments) != deps {
			t.Fatalf("deployment stats = %d", len(st.Deployments))
		}
		var peakSum int
		for i, ds := range st.Deployments {
			if ds.Name != fmt.Sprintf("nn%d", i) {
				t.Fatalf("deployment %d name = %q", i, ds.Name)
			}
			if ds.PeakInstances < 1 || ds.PeakInstances < ds.Alive {
				t.Fatalf("deployment %d peak %d alive %d", i, ds.PeakInstances, ds.Alive)
			}
			peakSum += ds.PeakInstances
		}
		// Every cold start created an instance; the high-water marks cannot
		// exceed the total ever provisioned.
		if uint64(peakSum) > st.ColdStarts {
			t.Fatalf("peak sum %d exceeds cold starts %d", peakSum, st.ColdStarts)
		}
		evs := evTr.EventsOf(trace.EventColdStart)
		if uint64(len(evs)) != st.ColdStarts {
			t.Fatalf("cold_start events %d != counter %d", len(evs), st.ColdStarts)
		}
		for _, ev := range evs {
			if ev.Dur != cfg.ColdStart {
				t.Fatalf("cold_start event dur = %v", ev.Dur)
			}
		}
	})
}

// TestKillOneInstanceSkipsDraining is the regression test for the bug
// where KillOneInstance picked an instance already selected for idle
// reclaim or eviction and reported true — a "fault injection" that
// changed nothing, since that instance's termination was in flight.
func TestKillOneInstanceSkipsDraining(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		p := New(clk, fastCfg())
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 4, RAMGB: 8, ConcurrencyLevel: 4, MinInstances: 2})
		if d.AliveInstances() != 2 {
			t.Fatalf("prewarmed %d instances, want 2", d.AliveInstances())
		}

		// Mark the first instance draining, as reclaimLoop/evictIdleLocked do
		// at victim-selection time.
		d.mu.Lock()
		marked := d.instances[0]
		marked.draining = true
		d.mu.Unlock()

		if !p.KillOneInstance(0) {
			t.Fatal("kill failed with a non-draining instance available")
		}
		if !marked.Alive() {
			t.Fatal("kill chose the draining instance")
		}

		// Only the draining instance remains: a further kill must report
		// false rather than double-terminate it.
		killsBefore := p.Stats().Kills
		if p.KillOneInstance(0) {
			t.Fatal("kill reported true with only a draining instance left")
		}
		if got := p.Stats().Kills; got != killsBefore {
			t.Fatalf("kills counter moved on a no-op kill: %d -> %d", killsBefore, got)
		}
	})
}

// TestOnInvokeKillHook covers the chaos injection point that crashes an
// instance mid-invocation, before the app handler runs.
func TestOnInvokeKillHook(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		var armed atomic.Int64
		armed.Store(1)
		cfg.OnInvoke = func(dep int, instID string) bool {
			return armed.Add(-1) >= 0
		}
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 4, RAMGB: 8, ConcurrencyLevel: 4})

		// First invocation: the instance is killed before the app handler
		// runs; the platform reports a nil response (the caller's retry layer
		// handles it) and a crashed shutdown.
		resp, err := d.Invoke("x")
		if err != nil || resp != nil {
			t.Fatalf("killed invoke = (%v, %v), want (nil, nil)", resp, err)
		}
		if got := p.Stats().Kills; got != 1 {
			t.Fatalf("kills = %d, want 1", got)
		}
		if len(tr.apps) == 0 || !tr.apps[0].crashed.Load() || tr.apps[0].invokes.Load() != 0 {
			t.Fatal("victim app should see a crashed shutdown and zero invokes")
		}

		// Disarmed: the next invocation cold-starts a fresh instance and runs.
		resp, err = d.Invoke("y")
		if err != nil || resp != "y" {
			t.Fatalf("post-kill invoke = (%v, %v)", resp, err)
		}
	})
}

// TestOnProvisionDenyHook covers the chaos injection point that starves
// cold starts (pool exhaustion / cold-start storms).
func TestOnProvisionDenyHook(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := fastCfg()
		cfg.InvokeQueueTimeout = 50 * time.Millisecond
		var deny atomic.Bool
		deny.Store(true)
		cfg.OnProvision = func(dep int) bool { return !deny.Load() }
		p := New(clk, cfg)
		defer p.Close()
		tr := &appTracker{}
		d := p.Register("nn0", tr.factory(nil, 0), DeploymentOptions{VCPU: 4, RAMGB: 8, ConcurrencyLevel: 4})

		if _, err := d.Invoke("x"); err != ErrNoCapacity {
			t.Fatalf("invoke under provision denial = %v, want ErrNoCapacity", err)
		}
		if d.AliveInstances() != 0 {
			t.Fatalf("instances provisioned despite denial: %d", d.AliveInstances())
		}
		deny.Store(false)
		if resp, err := d.Invoke("y"); err != nil || resp != "y" {
			t.Fatalf("post-denial invoke = (%v, %v)", resp, err)
		}
	})
}
