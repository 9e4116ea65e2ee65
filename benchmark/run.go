package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/trace"
	"lambdafs/internal/workload"
)

// hostNow reads the host's wall clock. The host_* metrics and setup_s are
// wall-clock quantities by definition (what the simulator costs us); the
// value never feeds back into any simulated latency.
func hostNow() time.Time {
	return time.Now() //vet:allow virtualtime host-cost metrics are wall-clock by definition and never reach the simulation
}

func hostSince(t time.Time) time.Duration { return hostNow().Sub(t) }

// cpuTime is the CPU time (user+system) this process has consumed. Wall
// time on a shared machine includes whatever the neighbours steal; CPU
// time does not, so host.ops_per_cpu_s and the direct-call rows of
// layers.go are built on it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is the measurement of one cluster's measured phase: a fixed
// number of operations per client of a closed loop, or one whole rate
// schedule of an open loop. The op count is fixed, not the time, so the
// virtual-time results do not depend on host speed; --seconds only sets
// how many clusters a run measures.
type phase struct {
	ops      int // completed and correct: the latency samples
	done     int // of those, the ones that count towards throughput
	virt     time.Duration
	host     time.Duration
	cpu      time.Duration // process CPU time (user+sys) over the phase
	liveHeap uint64        // bytes the heap holds live once the phase is over
	mallocs  uint64
	bytes    uint64
	usd      float64
	lat      []int64 // sorted virtual ns, one per completed op
	readLat  []int64
	writeLat []int64
	lag      []int64 // sorted; open loop only
}

// episode is one fresh cluster taken through set-up, its measured phase,
// verification and teardown.
type episode struct {
	sp     *spec
	st     *stack // nil once the episode is over
	lay    layout
	actors []*actor
	tracer *trace.Tracer // outlives st; nil when untraced

	setup     time.Duration
	m         phase
	attempted int
	failed    int
	faults    []string

	// Filled for per-layer runs only.
	ctrBefore, ctrAfter counters
	advances            uint64
	peakInstances       float64
	peakGoroutines      int
	recovery            *ndb.RecoveryStats
	gc                  gcCPU
}

// runEpisode builds a cluster for sp, warms it up, measures, verifies the
// namespace and tears down. probe additionally samples the per-layer
// gauges during the measured phase.
func runEpisode(sp *spec, seed int64, traced, probe bool) (*episode, error) {
	t0 := hostNow()
	e := &episode{sp: sp, lay: sp.layout()}
	e.st = newStack(seed, sp.cacheBudget, traced)
	e.tracer = e.st.tracer
	defer func() {
		// A cluster holds ~150 MB live (result caches, metadata caches);
		// a run builds several, so let each go once it is measured.
		e.st.close()
		e.st, e.actors = nil, nil
	}()
	// The whole episode runs as one registered goroutine of the cluster's
	// clock. While it computes between phases it counts as busy, so virtual
	// time stands still; left unregistered, every host-side pause (reading
	// MemStats, gathering counters) would let the clock free-run through
	// the platform's reclaim timers and scale the warmed-up cluster in.
	var err error
	clock.Run(e.st.sim, func() { err = e.run(seed, t0, probe) })
	return e, err
}

func (e *episode) run(seed int64, t0 time.Time, probe bool) error {
	sp := e.sp
	workload.PreloadNDB(e.st.db, e.lay.dirs, e.lay.files())
	for c := 0; c < sp.clients; c++ {
		a := &actor{id: c, sp: sp, lay: &e.lay, rpc: e.st.newClient(fmt.Sprintf("bench-%03d", c))}
		if c < len(e.lay.owned) {
			a.live = append([]string(nil), e.lay.owned[c]...)
		}
		e.actors = append(e.actors, a)
	}
	e.warmUp(seed)
	e.setup = hostSince(t0)

	e.tracer.Reset() // keep the measured phase's spans only (nil-safe)
	e.reseed(seed)
	var stopProbe func()
	if probe {
		e.ctrBefore = e.st.counters()
		e.gc = readGCCPU()
		stopProbe = e.startProbe()
	}
	advances := e.st.sim.Advances()
	if sp.phases != nil {
		e.m = e.openLoop(seed)
	} else {
		e.m = e.closedLoop(sp.ops)
	}
	e.advances = e.st.sim.Advances() - advances
	if probe {
		stopProbe()
		e.gc = readGCCPU().sub(e.gc)
		e.ctrAfter = e.st.counters()
	}
	e.m.liveHeap = liveHeap()
	for _, a := range e.actors {
		e.attempted += a.issued
		e.failed += a.failed
		e.faults = append(e.faults, a.faults...)
	}
	if err := e.verify(seed); err != nil {
		return err
	}
	if sp.recover {
		rs, err := e.st.crashRecover()
		if err != nil {
			return err
		}
		e.recovery = rs
	}
	return nil
}

// liveHeap collects garbage and returns what is still allocated: the
// footprint of one warmed-up, measured cluster (store rows, metadata and
// result caches, the harness's own samples). Unlike the process's peak
// RSS it does not depend on where the collector's cycles happen to fall.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reseed gives every actor its measured-phase op stream and clears what
// the warm-up counted.
func (e *episode) reseed(seed int64) {
	for _, a := range e.actors {
		a.rng = rand.New(rand.NewSource(seed*1000003 + int64(a.id)*7919))
		a.issued, a.failed, a.faults = 0, 0, nil
	}
}

// warmUp establishes the TCP connections and fills the caches with a
// different seed than the measured phase, so measurement starts from the
// steady state users of a long-running service see.
func (e *episode) warmUp(seed int64) {
	for _, a := range e.actors {
		a.rng = rand.New(rand.NewSource(^seed*1000003 + int64(a.id)*104729))
	}
	// Connect first, one request per deployment, one after the other. If
	// all clients sent their first request at once, every deployment would
	// see a burst of HTTP invocations and scale out to one, two or three
	// instances depending on how the goroutines interleave; the cluster
	// then keeps that size (and its cost, INV fan-out and cache split) for
	// the whole measured phase, and identical seeds give results 10% apart.
	seen := map[int]bool{}
	for _, path := range e.lay.files() {
		if dep := e.st.sys.Ring().DeploymentForPath(path); !seen[dep] {
			seen[dep] = true
			e.actors[0].do(namespace.OpStat, path, "")
		}
	}
	e.forEachActor(func(a *actor) {
		for i := a.id; i < len(e.lay.shared); i += len(e.actors) {
			for k := 0; k < e.sp.warmSweeps; k++ {
				a.do(namespace.OpRead, e.lay.shared[i], "")
			}
		}
	})
	e.closedLoop(e.sp.warmupOps)
}

// forEachActor runs fn once per actor, each on its own clock-registered
// goroutine, and idles on the clock until all of them are done.
func (e *episode) forEachActor(fn func(a *actor)) {
	var wg sync.WaitGroup
	for _, a := range e.actors {
		a := a
		wg.Add(1)
		clock.Go(e.st.sim, func() {
			defer wg.Done()
			fn(a)
		})
	}
	clock.Idle(e.st.sim, wg.Wait)
}

// measure brackets a phase: it runs body (which must drive the actors and
// fill their lat slices) and collects the totals.
func (e *episode) measure(body func()) phase {
	for _, a := range e.actors {
		a.lat, a.isW, a.lag = a.lat[:0], a.isW[:0], a.lag[:0]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	usd := e.st.lambda.TotalUSD()
	v0, h0, c0 := e.st.sim.Now(), hostNow(), cpuTime()
	body()
	r := phase{virt: e.st.sim.Since(v0), host: hostSince(h0), cpu: cpuTime() - c0, usd: e.st.lambda.TotalUSD() - usd}
	runtime.ReadMemStats(&ms)
	r.mallocs, r.bytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
	for _, a := range e.actors {
		r.lat = append(r.lat, a.lat...)
		r.lag = append(r.lag, a.lag...)
		for i, w := range a.isW {
			if w {
				r.writeLat = append(r.writeLat, a.lat[i])
			} else {
				r.readLat = append(r.readLat, a.lat[i])
			}
		}
	}
	r.ops = len(r.lat)
	r.done = r.ops
	for _, s := range [][]int64{r.lat, r.readLat, r.writeLat, r.lag} {
		slices.Sort(s)
	}
	return r
}

// closedLoop: every client issues ops operations back to back.
func (e *episode) closedLoop(ops int) phase {
	return e.measure(func() {
		e.forEachActor(func(a *actor) {
			for i := 0; i < ops; i++ {
				op, path, dest := a.nextOp()
				t := e.st.sim.Now()
				if a.do(op, path, dest) {
					a.lat = append(a.lat, int64(e.st.sim.Since(t)))
					a.isW = append(a.isW, op.IsWrite())
				}
			}
		})
	})
}

// openLoop replays the rate schedule once. Each client owns a seeded
// due-time schedule (one operation per 1/rate slot, uniformly placed
// inside its slot, so the count owed is exact and the phases random),
// sleeps on the virtual clock until the next operation is due, sends at
// once when it is late, and times every operation from its due time — a
// stall is charged to all the requests it delays. Operations still unsent
// when the window closes count as failed. Throughput is goodput: an
// operation counts when it is answered within goodputLimit of its due
// time (while the system keeps up, plain throughput of an open loop is
// just the offered rate, the same number on every run).
func (e *episode) openLoop(seed int64) phase {
	var window time.Duration
	for _, p := range e.sp.phases {
		window += p.dur
	}
	r := e.measure(func() {
		start := e.st.sim.Now()
		e.forEachActor(func(a *actor) {
			sched := rand.New(rand.NewSource(seed*7919 + int64(a.id)))
			for _, due := range dueTimes(e.sp.phases, len(e.actors), sched) {
				now := e.st.sim.Since(start)
				if now >= window {
					a.issued++
					a.failed++ // owed but never sent
					continue
				}
				if due > now {
					e.st.sim.Sleep(due - now)
					now = due
				}
				op, path, dest := a.nextOp()
				ok := a.do(op, path, dest)
				done := e.st.sim.Since(start)
				if ok {
					a.lat = append(a.lat, int64(done-due))
					a.isW = append(a.isW, op.IsWrite())
					a.lag = append(a.lag, int64(now-due))
				}
			}
		})
	})
	r.virt = window
	r.done, _ = slices.BinarySearch(r.lat, int64(goodputLimit)+1)
	return r
}

// goodputLimit is the open loop's latency limit, from due time to reply:
// about twice the tail latency of a healthy run, far below a cold start.
const goodputLimit = 10 * time.Millisecond

// dueTimes lays one client's share of the schedule out: the aggregate
// rate is split evenly over clients, and the k-th operation falls at a
// seeded uniform point of the k-th unit of the client's cumulative
// intensity.
func dueTimes(phases []ratePhase, clients int, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	var t0 time.Duration
	carried := 0.0 // intensity accumulated before this phase
	next := rng.Float64()
	for _, p := range phases {
		perClient := p.rate / float64(clients)
		total := carried + perClient*p.dur.Seconds()
		for next < total {
			out = append(out, t0+time.Duration((next-carried)/perClient*float64(time.Second)))
			next = float64(len(out)) + rng.Float64()
		}
		carried, t0 = total, t0+p.dur
	}
	return out
}

// startProbe samples what has no monotone counter while the measured
// phase runs: active instances and goroutines. It is a virtual-time actor
// like the clients (so it only ever wakes at an instant when every other
// actor is parked: queue depths read 0 from here by construction, which is
// why the store's queue is measured from the traced run's ndb.queue spans
// instead); only per-layer runs pay for it.
func (e *episode) startProbe() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	clock.Go(e.st.sim, func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			e.peakInstances = max(e.peakInstances, float64(e.st.platform.ActiveInstances()))
			e.peakGoroutines = max(e.peakGoroutines, runtime.NumGoroutine())
			e.st.sim.Sleep(25 * time.Millisecond)
		}
	})
	return func() {
		close(quit)
		clock.Idle(e.st.sim, func() { <-done })
	}
}

// verify is the correctness check every run ends with: the store must be
// internally consistent, 1,000 sampled live paths must stat (files must
// read back, preloaded ones with their block locations), and 1,000 sampled
// paths that were deleted, moved away or never created must be
// ErrNotFound — all through the full request path, against the harness's
// own model.
func (e *episode) verify(seed int64) error {
	if bad := e.st.db.CheckIntegrity(); len(bad) > 0 {
		return fmt.Errorf("%s: store integrity: %s (and %d more)", e.sp.name, bad[0], len(bad)-1)
	}
	const sample = 1000
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	live := append([]string(nil), e.lay.shared...)
	var dirs, dead []string
	for _, a := range e.actors {
		live = append(live, a.live...)
		dirs = append(dirs, a.dirs...)
		dead = append(dead, a.dead...)
	}
	dirs = append(dirs, e.lay.opDirs...)
	for i := 0; len(dead) < sample; i++ {
		dead = append(dead, live[i%len(live)]+".never")
	}
	v := &actor{id: -1, sp: e.sp, lay: &e.lay, rpc: e.st.newClient("bench-verify"), rng: rng}
	var errs []string
	for i := 0; i < sample; i++ {
		p := live[rng.Intn(len(live))]
		op := namespace.OpRead
		if i%4 == 0 {
			p, op = dirs[rng.Intn(len(dirs))], namespace.OpStat
		}
		resp, err := v.rpc.Do(op, p, "")
		if why := v.check(op, p, resp, err); why != "" {
			errs = append(errs, fmt.Sprintf("live path %s: %s", p, why))
		}
	}
	for i := 0; i < sample; i++ {
		p := dead[rng.Intn(len(dead))]
		resp, err := v.rpc.Do(namespace.OpStat, p, "")
		if err != nil {
			errs = append(errs, fmt.Sprintf("dead path %s: transport: %v", p, err))
		} else if !errors.Is(resp.Error(), namespace.ErrNotFound) {
			errs = append(errs, fmt.Sprintf("dead path %s: want ErrNotFound, got %q", p, resp.Err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: %d of %d sampled paths contradict the model, first: %s", e.sp.name, len(errs), 2*sample, errs[0])
	}
	return nil
}

// writeTrace dumps the traced run's spans and events as JSONL.
func (e *episode) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, e.sp.name+".trace.jsonl"))
	if err != nil {
		return err
	}
	if err := e.tracer.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile profiles fn into dir/<name>.cpu.pprof.
func cpuProfile(dir, name string, fn func() error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	return runErr
}
