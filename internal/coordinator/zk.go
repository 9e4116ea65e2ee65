package coordinator

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"lambdafs/internal/clock"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// ZK is the ZooKeeper-like in-memory Coordinator: ephemeral sessions for
// liveness, watch-style crash callbacks, group messaging for INV/ACK, and
// first-come leader election with succession.
type ZK struct {
	clk *clock.Sim
	cfg Config

	tel coordTelemetry

	mu      sync.Mutex
	deps    map[int]map[string]*zkSession
	leaders map[string][]string // group -> ordered candidate ids
}

// coordTelemetry holds the coordinator's registry counters; instruments
// are nil (no-op) when Config.Metrics is unset.
type coordTelemetry struct {
	leasesOpened  *telemetry.Counter
	leaseExpiries *telemetry.Counter
	invalidations *telemetry.Counter
	watches       *telemetry.Counter
	failovers     *telemetry.Counter
	hedgedINVs    *telemetry.Counter
	invLatency    *telemetry.Histogram
}

func newCoordTelemetry(reg *telemetry.Registry) coordTelemetry {
	return coordTelemetry{
		leasesOpened:  reg.Counter("lambdafs_coordinator_leases_opened_total"),
		leaseExpiries: reg.Counter("lambdafs_coordinator_lease_expiries_total"),
		invalidations: reg.Counter("lambdafs_coordinator_invalidations_total"),
		watches:       reg.Counter("lambdafs_coordinator_watch_deliveries_total"),
		failovers:     reg.Counter("lambdafs_coordinator_failovers_total"),
		hedgedINVs:    reg.Counter("lambdafs_coordinator_hedged_invs_total"),
		invLatency:    reg.Histogram("lambdafs_coordinator_inv_latency_seconds"),
	}
}

var _ Coordinator = (*ZK)(nil)

type zkSession struct {
	zk      *ZK
	dep     int
	id      string
	handler Handler
	closed  bool
	// gone is set when the session ends; in-flight INV rounds use it to
	// excuse the member's ACK.
	gone *clock.Event
}

// NewZK creates the coordinator.
func NewZK(clk *clock.Sim, cfg Config) *ZK {
	z := &ZK{
		clk:     clk,
		cfg:     cfg,
		tel:     newCoordTelemetry(cfg.Metrics),
		deps:    make(map[int]map[string]*zkSession),
		leaders: make(map[string][]string),
	}
	// The session gauge reads MemberCount, which takes z.mu briefly; the
	// scraper invokes it from its own goroutine, never under z.mu.
	cfg.Metrics.GaugeFunc("lambdafs_coordinator_sessions",
		func() float64 { return float64(z.MemberCount()) })
	return z
}

// Register adds an instance to deployment dep.
func (z *ZK) Register(dep int, id string, h Handler) Session {
	s := &zkSession{zk: z, dep: dep, id: id, handler: h, gone: clock.NewEvent(z.clk)}
	z.mu.Lock()
	if z.deps[dep] == nil {
		z.deps[dep] = make(map[string]*zkSession)
	}
	z.deps[dep][id] = s
	z.mu.Unlock()
	z.tel.leasesOpened.Inc()
	return s
}

func (s *zkSession) ID() string { return s.id }

func (s *zkSession) end(crashed bool) {
	z := s.zk
	z.mu.Lock()
	if s.closed {
		z.mu.Unlock()
		return
	}
	s.closed = true
	delete(z.deps[s.dep], s.id)
	failovers := 0
	for group, ids := range z.leaders {
		for i, id := range ids {
			if id == s.id {
				// Losing the group's leader with a successor queued is a
				// leader failover: the next candidate takes over.
				if i == 0 && len(ids) > 1 {
					failovers++
				}
				z.leaders[group] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
	z.mu.Unlock()
	z.tel.failovers.Add(float64(failovers))
	if crashed {
		z.tel.leaseExpiries.Inc()
	}
	s.gone.Set()
	if crashed && z.cfg.OnCrash != nil {
		z.cfg.OnCrash(s.id)
	}
}

func (s *zkSession) Close() { s.end(false) }
func (s *zkSession) Crash() { s.end(true) }

// Members returns the live instance IDs of deployment dep.
func (z *ZK) Members(dep int) []string {
	z.mu.Lock()
	defer z.mu.Unlock()
	out := make([]string, 0, len(z.deps[dep]))
	for id := range z.deps[dep] {
		out = append(out, id)
	}
	return out
}

// MemberCount returns the total number of live instances.
func (z *ZK) MemberCount() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	n := 0
	for _, m := range z.deps {
		n += len(m)
	}
	return n
}

// InvalidateBatch delivers the whole batch of invalidations to every live
// member of the target deployments in one concurrent INV/ACK round.
func (z *ZK) InvalidateBatch(deps []int, invs []Invalidation) error {
	return z.InvalidateBatchTraced(deps, invs, nil)
}

// InvalidateBatchTraced is InvalidateBatch with per-target trace
// attribution: each delivery leg is a coherence.target child span of tc
// tagged with the target instance's ID.
func (z *ZK) InvalidateBatchTraced(deps []int, invs []Invalidation, tc *trace.Ctx) error {
	if len(invs) == 0 {
		return nil
	}
	// Snapshot the membership at protocol start, deduplicating members that
	// appear in several target deployments so each receives the batch once.
	// A member that wrote every inv in the batch has nothing to invalidate;
	// per-inv writers are skipped at delivery time. A round whose only
	// members are such writers — a deployment of one — ends before it
	// allocates anything.
	z.mu.Lock()
	nmax := 0
	for _, dep := range deps {
		for id := range z.deps[dep] {
			if !wroteAll(invs, id) {
				nmax++
			}
		}
	}
	if nmax == 0 {
		z.mu.Unlock()
		z.tel.invalidations.Inc()
		return nil
	}
	targets := make([]zkTarget, 0, nmax)
	seen := make(map[string]bool, nmax)
	for _, dep := range deps {
		for id, s := range z.deps[dep] {
			if !seen[id] && !wroteAll(invs, id) {
				seen[id] = true
				targets = append(targets, zkTarget{s: s})
			}
		}
	}
	z.mu.Unlock()
	z.tel.invalidations.Inc()
	// Deterministic delivery order: membership is a map, so sort by id
	// before fanning out.
	slices.SortFunc(targets, func(a, b zkTarget) int { return cmp.Compare(a.s.id, b.s.id) })
	// The deliveries read the round's own copy of the batch: a straggler
	// or a hedged re-send may still be delivering after the round returns,
	// and by then the caller may be reusing invs.
	batch := slices.Clone(invs)
	z.tel.watches.Add(float64(len(targets)))
	invStart := z.clk.Now()

	fan := min(invFanout, len(targets))
	sem := clock.NewMailbox[struct{}](z.clk) // fan delivery slots
	for i := 0; i < fan; i++ {
		sem.Send(struct{}{})
	}
	// A target's primary and hedged deliveries both post its index.
	acks := clock.NewMailbox[int](z.clk)

	deliver := func(i int, s *zkSession) {
		sem.Recv()
		tsp := tc.Start(trace.KindCoherenceTarget)
		tsp.SetInstance(s.id)
		tsp.AddINVTargets(1)
		// Leader → coordinator → member hop.
		z.clk.Sleep(2 * z.cfg.HopLatency)
		// A member that terminated mid-protocol is excused.
		if !s.gone.IsSet() {
			for _, inv := range batch {
				if inv.Writer == s.id {
					continue
				}
				s.handler(inv)
			}
			// Member → coordinator → leader ACK hop.
			z.clk.Sleep(2 * z.cfg.HopLatency)
		}
		tsp.End()
		sem.Send(struct{}{})
		acks.Send(i)
	}
	for i, t := range targets {
		clock.Go(z.clk, func() { deliver(i, t.s) })
	}

	// Gather: wait for every target's ACK until the deadline, stopping once
	// on the way, at the hedge instant, to re-send to the stragglers.
	ackBy := clock.DeadlineIn(z.clk, z.cfg.AckTimeout)
	waitBy, hedged := ackBy, true
	if z.cfg.HedgeAfter > 0 && z.cfg.HedgeAfter < z.cfg.AckTimeout {
		waitBy, hedged = clock.DeadlineIn(z.clk, z.cfg.HedgeAfter), false
	}
	need := len(targets)
	timedOut := false
	for need > 0 && !timedOut {
		i, ok := acks.RecvBy(waitBy)
		switch {
		case ok:
			if !targets[i].acked {
				targets[i].acked = true
				need--
			}
		case !hedged:
			// Duplicate delivery is benign — handlers are idempotent.
			waitBy, hedged = ackBy, true
			for i, t := range targets {
				if !t.acked && !t.s.gone.IsSet() {
					z.tel.hedgedINVs.Inc()
					clock.Go(z.clk, func() { deliver(i, t.s) })
				}
			}
		default:
			timedOut = true
		}
	}
	z.tel.invLatency.Observe(z.clk.Since(invStart))
	if !timedOut {
		return nil
	}
	errs := make([]error, 0, len(targets))
	for _, t := range targets {
		if !t.acked {
			errs = append(errs, fmt.Errorf("target %s: %w", t.s.id, ErrAckTimeout))
		}
	}
	return errors.Join(errs...)
}

// zkTarget is one member an INV/ACK round delivers to, and whether it has
// ACKed.
type zkTarget struct {
	s     *zkSession
	acked bool
}

// wroteAll reports whether member id wrote every inv of the batch.
func wroteAll(invs []Invalidation, id string) bool {
	for _, inv := range invs {
		if inv.Writer != id {
			return false
		}
	}
	return true
}

// ExpireSession force-expires the ephemeral session of id, as when its
// lease lapses after missed heartbeats (fault injection). The session ends
// exactly as a crash: it leaves its deployment and any leader queues, and
// the OnCrash watch fires so crashed-NameNode cleanup runs. Reports
// whether a live session with that id existed.
func (z *ZK) ExpireSession(id string) bool {
	z.mu.Lock()
	var victim *zkSession
	for _, members := range z.deps {
		if s, ok := members[id]; ok {
			victim = s
			break
		}
	}
	z.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.end(true)
	return true
}

// Depose rotates leadership of group without ending any session (fault
// injection: leader flap — the leader's znode is momentarily disconnected,
// succession promotes the next candidate, and the old leader re-queues at
// the back). Returns the new leader id ("" when the group has fewer than
// two candidates, in which case nothing changes).
func (z *ZK) Depose(group string) string {
	z.mu.Lock()
	defer z.mu.Unlock()
	ids := z.leaders[group]
	if len(ids) < 2 {
		return ""
	}
	z.leaders[group] = append(ids[1:], ids[0])
	z.tel.failovers.Inc()
	return z.leaders[group][0]
}

// TryLead acquires or queues for leadership of group.
func (z *ZK) TryLead(group, id string) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, cand := range z.leaders[group] {
		if cand == id {
			return z.leaders[group][0] == id
		}
	}
	z.leaders[group] = append(z.leaders[group], id)
	return z.leaders[group][0] == id
}

// Leader returns the current leader of group.
func (z *ZK) Leader(group string) string {
	z.mu.Lock()
	defer z.mu.Unlock()
	if ids := z.leaders[group]; len(ids) > 0 {
		return ids[0]
	}
	return ""
}
