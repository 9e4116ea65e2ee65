package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/slo"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// AlertFamily names one chaos episode family with an alert-coverage
// contract: a scripted fault scenario plus the alerts it must and must
// not fire. alertFamilies pairs each with its fault, whose doc says what
// it scripts.
type AlertFamily string

// The alert families.
const (
	FamilyInstanceKill    AlertFamily = "instance_kill"
	FamilyShardFault      AlertFamily = "shard_fault"
	FamilySlowCoordinator AlertFamily = "slow_coordinator"
	FamilyCrashRestart    AlertFamily = "crash_restart"
	FamilyWALDrop         AlertFamily = "wal_drop"
	FamilyTenantStorm     AlertFamily = "tenant_storm"
)

// AlertContract is one row of the alert-coverage table: a family, the
// rules of slo.Rules its scripted fault must fire, and the fault. Every
// other rule must not fire, so each rule sits in each contract on one
// side or the other by construction.
type AlertContract struct {
	Family   AlertFamily
	MustFire []string
	// fault runs one virtual second of the family's episode: the second's
	// steady work and, at the family's fault seconds, the fault.
	fault func(a *alertEpisode, sec int)
}

// alertFamilies is the coverage table. Each fault is scripted to breach
// its rules' bounds as slo.Rules states them; no bound is set to meet a
// fault.
var alertFamilies = []AlertContract{
	{FamilyInstanceKill, []string{"lease_churn"}, killInstance},
	{FamilyShardFault, []string{"op_latency_p99", "ndb_queue_saturation"}, stallShard},
	{FamilySlowCoordinator, []string{"inv_latency_p99"}, slowACKs},
	{FamilyCrashRestart, []string{"recovery_time_ceiling"}, crashStore},
	{FamilyWALDrop, []string{"wal_fsync_stall"}, dropWAL},
	{FamilyTenantStorm, []string{"tenant_throttle_surge"}, floodTenant},
}

// AlertContracts returns the coverage contract of every episode family.
func AlertContracts() []AlertContract { return slices.Clone(alertFamilies) }

// The alert episodes' shape: alertSeconds virtual seconds, one scrape at
// the end of each, and alertOpsPerSec steady requests per second on the
// live cluster (half as many commits on the durable store of the
// crash_restart and wal_drop families).
const (
	alertSeconds   = 12
	alertOpsPerSec = 20
)

// AlertEpisodeConfig shapes one alert-coverage episode. Episodes run on
// a Sim clock with sequential seeded operations and one scrape per
// virtual second, so the transition log (and hence the digest) is a
// pure function of (Family, Seed, MuteRule).
type AlertEpisodeConfig struct {
	Family AlertFamily
	Seed   int64
	// MuteRule is the sabotage hook: the named rule keeps evaluating but
	// can never transition. Muting a family's must-fire rule MUST surface
	// as a contract violation — that is what proves the assertion
	// machinery is alive.
	MuteRule string
	// Flight, when non-nil, receives every scrape snapshot and every
	// firing/resolved trace event (failure-dump wiring).
	Flight *telemetry.FlightRecorder
}

// AlertEpisodeResult is the outcome of one alert-coverage episode.
type AlertEpisodeResult struct {
	Family      AlertFamily
	Seed        int64
	Fired       []string // rules that fired at least once, sorted
	Transitions []slo.Transition
	Violations  []string
	// Digest hashes the (t_us, rule, from, to) transition log plus the
	// fired set: same config → same digest, replayable by seed.
	Digest string
}

// Failed reports whether the episode violated its coverage contract.
func (r *AlertEpisodeResult) Failed() bool { return len(r.Violations) > 0 }

// RunAlertEpisode executes one family's scripted fault scenario under
// slo.Rules and asserts its coverage contract: every must-fire alert
// fired, no must-not-fire alert did.
func RunAlertEpisode(cfg AlertEpisodeConfig) *AlertEpisodeResult {
	res := &AlertEpisodeResult{Family: cfg.Family, Seed: cfg.Seed}
	i := slices.IndexFunc(alertFamilies, func(c AlertContract) bool { return c.Family == cfg.Family })
	if i < 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("unknown alert family %q", cfg.Family))
		return res
	}
	contract := alertFamilies[i]

	reg := telemetry.NewRegistry()
	clk := clock.NewSim()
	defer clk.Close()
	sc := telemetry.NewScraper(clk, reg, time.Second)
	eng := slo.New(slo.Config{Registry: reg})
	eng.AddRules(slo.Rules())
	if cfg.MuteRule != "" {
		eng.Mute(cfg.MuteRule)
	}
	if cfg.Flight != nil {
		sc.OnSnapshot(cfg.Flight.RecordSnapshot)
		eng.SetEventSink(cfg.Flight.RecordEvent)
	}
	sc.OnSnapshot(eng.Observe)

	clock.Run(clk, func() {
		a := &alertEpisode{clk: clk, reg: reg, rng: rand.New(rand.NewSource(cfg.Seed)), inj: NewInjector(),
			clients: clock.NewGroup(clk)}
		for sec := 0; sec < alertSeconds; sec++ {
			contract.fault(a, sec)
			clk.Sleep(time.Second)
			sc.ScrapeNow()
		}
		a.clients.Wait()
	})

	res.Transitions = eng.Transitions()
	fired := map[string]bool{}
	for _, tr := range res.Transitions {
		if tr.To == slo.StateFiring {
			fired[tr.Rule] = true
		}
	}
	for name := range fired {
		res.Fired = append(res.Fired, name)
	}
	sort.Strings(res.Fired)

	for _, r := range slo.Rules() {
		switch must := slices.Contains(contract.MustFire, r.Name); {
		case must && !fired[r.Name]:
			res.Violations = append(res.Violations,
				fmt.Sprintf("family %s: must-fire alert %q never fired", cfg.Family, r.Name))
		case !must && fired[r.Name]:
			res.Violations = append(res.Violations,
				fmt.Sprintf("family %s: must-not-fire alert %q fired", cfg.Family, r.Name))
		}
	}

	h := sha256.New()
	for _, tr := range res.Transitions {
		fmt.Fprintf(h, "%d|%s|%s|%s\n", tr.TUS, tr.Rule, tr.From, tr.To)
	}
	fmt.Fprintf(h, "fired|%v\n", res.Fired)
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res
}

// alertEpisode is one alert episode's running state. Its substrate is
// built on first use: the live cluster the families that serve requests
// drive, or the durable store crash_restart and wal_drop commit to.
type alertEpisode struct {
	clk *clock.Sim
	reg *telemetry.Registry
	rng *rand.Rand
	inj *Injector
	c   *cluster
	d   *durable
	// clients joins the concurrent clients of shard_fault before the
	// episode ends.
	clients *clock.Group
	// ackDelay, while non-zero, holds every peer's ACK of an invalidation
	// back (slow_coordinator).
	ackDelay time.Duration
}

// alertStore is the alert episodes' store config: modest real latencies,
// so the latency SLO has signal, instrumented into the episode's registry.
func (a *alertEpisode) alertStore() ndb.Config {
	c := ndb.DefaultConfig()
	c.RTT = 100 * time.Microsecond
	c.ReadService = 30 * time.Microsecond
	c.WriteService = 60 * time.Microsecond
	c.Metrics = a.reg
	return c
}

// cluster returns the live cluster: three engines on a durable store (so
// the WAL-stall absence rule sees appends married to commits), gated by
// the storm tenants' admission (tenantstorm.go), whose peers handle
// invalidations through ack.
func (a *alertEpisode) cluster() *cluster {
	if a.c == nil {
		a.c = newCluster(a.clk, durableConfig(a.clk, a.inj, a.alertStore()), 50*time.Microsecond, 3,
			func(c *cluster) {
				c.ecfg.Admission = stormTenants(a.clk, a.reg)
				c.invalidate = a.ack
			})
	}
	return a.c
}

// ack handles one invalidation at peer e, after ackDelay when it is set.
func (a *alertEpisode) ack(e *core.Engine, inv coordinator.Invalidation) {
	if a.ackDelay > 0 {
		a.clk.Sleep(a.ackDelay)
	}
	e.HandleInvalidation(inv)
}

// durable returns the durable store. Each replayed record charges 50ms of
// virtual recovery time: crash_restart's crash, after 60 commits, recovers
// in ~3s, over the 2s ceiling.
func (a *alertEpisode) durable() *durable {
	if a.d == nil {
		cfg := a.alertStore()
		cfg.Durability.ReplayPerRecord = 50 * time.Millisecond
		a.d = newDurable(a.clk, a.inj, cfg)
	}
	return a.d
}

// request sends one seeded request from tenant to the live cluster.
func (a *alertEpisode) request(tenant string) {
	_, e, req := a.cluster().next(a.rng, alertMix)
	req.Tenant = tenant
	e.Execute(req)
}

// steady sends one second of the live cluster's steady traffic, tagged in
// stormMix's tenant rotation.
func (a *alertEpisode) steady() {
	for i := 0; i < alertOpsPerSec; i++ {
		a.request(stormMix[i%len(stormMix)])
	}
}

// faultSecond reports whether the live-cluster families fault at sec.
func faultSecond(sec int) bool { return sec == 4 || sec == 7 }

// killInstance crashes a NameNode's session at each fault second; a fresh
// engine takes its slot. Only slots 1 and 2 die, so slot 0's engine serves
// the whole episode.
func killInstance(a *alertEpisode, sec int) {
	if faultSecond(sec) {
		a.cluster().replace(1+a.rng.Intn(2), a.inj)
	}
	a.steady()
}

// shard_fault's load and stall. shardClients concurrent clients, each due
// to send shardClientRate requests a second, outnumber a shard's
// ndb.DefaultConfig().WorkersPerNode (8) servers threefold; the stall
// charges stallDelay to each of the stalled shard's next stallAccesses
// accesses, seconds of its service in all. stallDelay tops the 50ms
// op-latency bound and stays under the 100ms that makes a stall a shard
// crash.
const (
	shardClients    = 32
	shardClientRate = 10
	stallDelay      = 60 * time.Millisecond
	stallAccesses   = 800
)

// stallShard runs the episode's steady traffic from shardClients
// concurrent clients of the two well-provisioned tenants (stormMix's
// first three entries) and, at the first fault second, stalls one shard.
// The stalled shard serves fewer accesses than the clients send, so every
// client ends up queued on it: its depth holds near the client count less
// its servers — over the saturation bound — for several ticks, and ops
// take longer than the stall itself.
func stallShard(a *alertEpisode, sec int) {
	switch sec {
	case 0:
		start := a.clk.Now()
		for i := 0; i < shardClients; i++ {
			a.clients.Go(func() { a.shardClient(i, start) })
		}
	case 4:
		a.inj.ArmShardStall(mediaShards-1, stallDelay, stallAccesses)
	}
}

// shardClient is shard_fault's client i: due to send shardClientRate
// requests a second from start, each a write that reaches the store — a
// directory of its own, then fresh files in it — under its own client id,
// so no other client's sequence numbers overtake its own.
func (a *alertEpisode) shardClient(i int, start time.Time) {
	const period = time.Second / shardClientRate
	offset := time.Duration(i) * period / shardClients
	c := a.cluster()
	for n := 0; n < alertSeconds*shardClientRate; n++ {
		if wait := start.Add(time.Duration(n)*period + offset).Sub(a.clk.Now()); wait > 0 {
			a.clk.Sleep(wait)
		}
		req := namespace.Request{Op: namespace.OpCreate, Path: fmt.Sprintf("/s%d/f%d", i, n),
			ClientID: fmt.Sprintf("s%d", i), Seq: uint64(n + 1), Tenant: stormMix[i%3]}
		if n == 0 {
			req.Op, req.Path = namespace.OpMkdirs, fmt.Sprintf("/s%d", i)
		}
		c.engines[a.rng.Intn(len(c.engines))].Execute(req)
	}
}

// slowACKs holds every peer's ACK back 6ms through each fault second's
// steady traffic. The INV/ACK rounds of its writes outlast the 5ms bound,
// while the ops that wait on them stay far under the op-latency bound.
func slowACKs(a *alertEpisode, sec int) {
	if faultSecond(sec) {
		a.ackDelay = 6 * time.Millisecond
	}
	a.steady()
	a.ackDelay = 0
}

// crashStore commits a seeded stream against the durable store and, at
// the episode's midpoint, crashes and recovers it. Commits continue on the
// recovered store afterwards, proving the WAL keeps pace (the absence rule
// stays quiet). A failed recovery leaves the ceiling alert silent, which
// the must-fire contract reports.
func crashStore(a *alertEpisode, sec int) {
	if sec == alertSeconds/2 {
		_, _ = a.durable().crash()
		a.inj.NoteFired(FaultCrashRestart, fmt.Sprintf("sec=%d", sec))
	}
	a.commits(sec)
}

// walDropSeconds is how many seconds of commits dropWAL's media lose.
const walDropSeconds = 6

// dropWAL commits the durable store's seeded stream and, from the first
// fault second on, loses every WAL record for walDropSeconds seconds:
// rows keep committing while nothing reaches media, for longer than the
// stall rule's 4-tick window.
func dropWAL(a *alertEpisode, sec int) {
	if sec == 4 {
		a.inj.ArmWALDrop(walDropSeconds * alertOpsPerSec / 2)
	}
	a.commits(sec)
}

// commits runs second sec's commits of the durable store's seeded stream.
func (a *alertEpisode) commits(sec int) {
	d := a.durable()
	for i := 0; i < alertOpsPerSec/2; i++ {
		seq := sec*alertOpsPerSec/2 + i + 1
		id := d.db.NextID()
		// A refused commit only thins the stream the rules watch.
		_ = d.commit(func(tx store.Tx) error {
			return tx.PutINode(&namespace.INode{
				ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d-%d", seq, a.rng.Intn(1000)),
				Perm: namespace.PermDefaultFile,
			})
		})
	}
}
