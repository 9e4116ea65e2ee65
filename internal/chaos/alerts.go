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
	FamilyInstanceKill AlertFamily = "instance_kill"
	FamilyShardFault   AlertFamily = "shard_fault"
	FamilyCrashRestart AlertFamily = "crash_restart"
	FamilyLeaderDepose AlertFamily = "leader_depose"
	FamilyTenantStorm  AlertFamily = "tenant_storm"
)

// Chaos alert rule names (stable identifiers — they appear in digests,
// artifacts, and the coverage contracts below).
const (
	AlertLeaseChurn      = "alert_lease_churn"
	AlertLeaderFlap      = "alert_leader_flap"
	AlertOpLatency       = "alert_op_latency"
	AlertRecoveryCeiling = "alert_recovery_ceiling"
	AlertWALStall        = "alert_wal_stall"
	AlertTenantThrottle  = "alert_tenant_throttle"
)

// ChaosRulePack is the uniform rule set every alert episode runs: the
// same six rules are active in every family, so "must not fire" is a
// real statement about signal selectivity, not about a rule being
// absent.
func ChaosRulePack() []slo.Rule {
	return []slo.Rule{
		// Any lease expiry within a tick is churn.
		slo.Threshold(AlertLeaseChurn,
			"lambdafs_coordinator_lease_expiries_total", slo.SignalDelta, slo.OpGreater, 0.5, 1),
		// Any leadership failover within a tick.
		slo.Threshold(AlertLeaderFlap,
			"lambdafs_coordinator_failovers_total", slo.SignalDelta, slo.OpGreater, 0.5, 1),
		// p99 metadata-op latency over 2ms (episode clusters run ~100µs
		// store RTTs, so healthy ops sit well under 1ms).
		slo.QuantileThreshold(AlertOpLatency,
			"lambdafs_core_op_latency_seconds", 0.99, slo.OpGreater, 2e-3, 1),
		// Any crash recovery slower than 500ms of virtual time.
		slo.QuantileThreshold(AlertRecoveryCeiling,
			"lambdafs_ndb_recovery_seconds", 0.99, slo.OpGreater, 0.5, 1),
		// Rows written while the WAL is silent for 4 ticks (rows, not
		// commits: a read-only commit appends nothing to the WAL).
		slo.Absence(AlertWALStall,
			"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 4),
		// More than 10 tenant admission rejections within one tick.
		slo.Threshold(AlertTenantThrottle,
			"lambdafs_tenant_throttled_total", slo.SignalDelta, slo.OpGreater, 10, 1),
	}
}

// AlertContract is one row of the alert-coverage table: a family, the
// rules its scripted fault must fire, and the fault. Every other rule of
// ChaosRulePack must not fire, so each rule sits in each contract on one
// side or the other by construction.
type AlertContract struct {
	Family   AlertFamily
	MustFire []string
	// fault runs one virtual second of the family's episode: the second's
	// steady work and, at the family's fault seconds, the fault.
	fault func(a *alertEpisode, sec int)
}

// alertFamilies is the coverage table.
var alertFamilies = []AlertContract{
	{FamilyInstanceKill, []string{AlertLeaseChurn}, killInstance},
	{FamilyShardFault, []string{AlertOpLatency}, stallShard},
	{FamilyCrashRestart, []string{AlertRecoveryCeiling}, crashStore},
	{FamilyLeaderDepose, []string{AlertLeaderFlap}, deposeLeader},
	{FamilyTenantStorm, []string{AlertTenantThrottle}, floodTenant},
}

// AlertContracts returns the coverage contract of every episode family.
func AlertContracts() []AlertContract { return slices.Clone(alertFamilies) }

// The alert episodes' shape: alertSeconds virtual seconds, one scrape at
// the end of each, and alertOpsPerSec steady requests per second on the
// live cluster (half as many commits on the crash_restart family's store).
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
// the full ChaosRulePack and asserts its coverage contract: every
// must-fire alert fired, no must-not-fire alert did.
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
	sc := telemetry.NewScraper(clk, reg, time.Second)
	eng := slo.New(slo.Config{Registry: reg, Window: 16})
	eng.AddRules(ChaosRulePack())
	if cfg.MuteRule != "" {
		eng.Mute(cfg.MuteRule)
	}
	if cfg.Flight != nil {
		sc.OnSnapshot(cfg.Flight.RecordSnapshot)
		eng.SetEventSink(cfg.Flight.RecordEvent)
	}
	sc.OnSnapshot(eng.Observe)

	clock.Run(clk, func() {
		a := &alertEpisode{clk: clk, reg: reg, rng: rand.New(rand.NewSource(cfg.Seed)), inj: NewInjector()}
		for sec := 0; sec < alertSeconds; sec++ {
			contract.fault(a, sec)
			clk.Sleep(time.Second)
			sc.ScrapeNow()
		}
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

	for _, r := range ChaosRulePack() {
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
// built on first use: the live cluster every family but crash_restart
// drives, or the durable store crash_restart crashes.
type alertEpisode struct {
	clk *clock.Sim
	reg *telemetry.Registry
	rng *rand.Rand
	inj *Injector
	c   *cluster
	d   *durable
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
// the storm tenants' admission (tenantstorm.go).
func (a *alertEpisode) cluster() *cluster {
	if a.c == nil {
		a.c = newCluster(a.clk, durableConfig(a.clk, a.inj, a.alertStore()), 50*time.Microsecond, 3,
			func(c *cluster) { c.ecfg.Admission = stormTenants(a.clk, a.reg) })
	}
	return a.c
}

// durable returns crash_restart's store. Each replayed record charges
// 50ms of virtual recovery time: a crash after ~30 commits recovers in
// ~1.5s, breaching the 500ms ceiling deterministically.
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

// killInstance expires a NameNode's session at each fault second; a fresh
// engine takes its slot. Slot 0 registered first and holds leadership, so
// only slots 1 and 2 die: the leader (and the leader-flap alert) stay
// untouched.
func killInstance(a *alertEpisode, sec int) {
	if faultSecond(sec) {
		a.cluster().replace(1+a.rng.Intn(2), a.inj)
	}
	a.steady()
}

// stallShard stalls one shard for a second's worth of accesses at each
// fault second: raw op latency jumps ~5ms, far over the 2ms p99 bound.
func stallShard(a *alertEpisode, sec int) {
	if faultSecond(sec) {
		a.inj.ArmShardStall(mediaShards-1, 5*time.Millisecond, alertOpsPerSec)
	}
	a.steady()
}

// deposeLeader rotates coordination leadership at each fault second.
func deposeLeader(a *alertEpisode, sec int) {
	if faultSecond(sec) {
		a.cluster().zk.Depose(LeaderGroup)
		a.inj.NoteFired(FaultLeaderFlap, "scripted depose")
	}
	a.steady()
}

// crashStore commits a seeded stream against the durable store and, at
// the episode's midpoint, crashes and recovers it. Commits continue on the
// recovered store afterwards, proving the WAL keeps pace (the absence rule
// stays quiet). A failed recovery leaves the ceiling alert silent, which
// the must-fire contract reports.
func crashStore(a *alertEpisode, sec int) {
	d := a.durable()
	if sec == alertSeconds/2 {
		_, _ = d.crash()
		a.inj.NoteFired(FaultCrashRestart, fmt.Sprintf("sec=%d", sec))
	}
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
