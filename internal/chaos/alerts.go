package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/slo"
	"lambdafs/internal/telemetry"
)

// AlertFamily names one chaos episode family with an alert-coverage
// contract: a scripted fault scenario plus the alerts it must and must
// not fire.
type AlertFamily string

const (
	// FamilyInstanceKill expires non-leader NameNode sessions mid-run:
	// lease churn must alert, but leadership and latency stay healthy.
	FamilyInstanceKill AlertFamily = "instance_kill"
	// FamilyShardFault stalls one NDB shard hard enough to push the op
	// latency SLO over its bound; membership stays stable.
	FamilyShardFault AlertFamily = "shard_fault"
	// FamilyCrashRestart crashes and recovers a durable store whose
	// replay cost breaches the recovery-time ceiling; the WAL keeps pace
	// with commits throughout (no stall).
	FamilyCrashRestart AlertFamily = "crash_restart"
	// FamilyLeaderDepose rotates coordination leadership: failovers must
	// alert while sessions and latency stay quiet.
	FamilyLeaderDepose AlertFamily = "leader_depose"
	// FamilyTenantStorm floods one underprovisioned tenant far past its
	// token-bucket rate: admission throttles must alert while the rest of
	// the cluster (latency, membership, durability) stays healthy.
	FamilyTenantStorm AlertFamily = "tenant_storm"
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
// same five rules are active in every family, so "must not fire" is a
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
		// Commits advancing while the WAL is silent for 4 ticks.
		slo.Absence(AlertWALStall,
			"lambdafs_ndb_wal_appends_total", "lambdafs_ndb_tx_commits_total", 4),
		// More than 10 tenant admission rejections within one tick.
		slo.Threshold(AlertTenantThrottle,
			"lambdafs_tenant_throttled_total", slo.SignalDelta, slo.OpGreater, 10, 1),
	}
}

// AlertContract declares the coverage expectations of one family.
type AlertContract struct {
	Family      AlertFamily
	MustFire    []string
	MustNotFire []string
}

// AlertContracts returns the coverage contract of every episode family.
// Every rule in ChaosRulePack appears in each family's contract, on one
// side or the other: coverage is total by construction.
func AlertContracts() []AlertContract {
	return []AlertContract{
		{
			Family:      FamilyInstanceKill,
			MustFire:    []string{AlertLeaseChurn},
			MustNotFire: []string{AlertLeaderFlap, AlertOpLatency, AlertRecoveryCeiling, AlertWALStall, AlertTenantThrottle},
		},
		{
			Family:      FamilyShardFault,
			MustFire:    []string{AlertOpLatency},
			MustNotFire: []string{AlertLeaseChurn, AlertLeaderFlap, AlertRecoveryCeiling, AlertWALStall, AlertTenantThrottle},
		},
		{
			Family:      FamilyCrashRestart,
			MustFire:    []string{AlertRecoveryCeiling},
			MustNotFire: []string{AlertLeaseChurn, AlertLeaderFlap, AlertOpLatency, AlertWALStall, AlertTenantThrottle},
		},
		{
			Family:      FamilyLeaderDepose,
			MustFire:    []string{AlertLeaderFlap},
			MustNotFire: []string{AlertLeaseChurn, AlertOpLatency, AlertRecoveryCeiling, AlertWALStall, AlertTenantThrottle},
		},
		{
			Family:      FamilyTenantStorm,
			MustFire:    []string{AlertTenantThrottle},
			MustNotFire: []string{AlertLeaseChurn, AlertLeaderFlap, AlertOpLatency, AlertRecoveryCeiling, AlertWALStall},
		},
	}
}

func contractFor(f AlertFamily) (AlertContract, bool) {
	for _, c := range AlertContracts() {
		if c.Family == f {
			return c, true
		}
	}
	return AlertContract{}, false
}

// AlertEpisodeConfig shapes one alert-coverage episode. Episodes run on
// a Sim clock with sequential seeded operations and one scrape per
// virtual second, so the transition log (and hence the digest) is a
// pure function of (Family, Seed, Seconds, OpsPerSec, MuteRule).
type AlertEpisodeConfig struct {
	Family  AlertFamily
	Seed    int64
	Seconds int // virtual seconds of workload (default 12)
	// OpsPerSec is the scripted op count per virtual second for the
	// live-cluster families (default 20).
	OpsPerSec int
	// MuteRule is the sabotage hook: the named rule keeps evaluating but
	// can never transition. Muting a family's must-fire rule MUST surface
	// as a contract violation — that is what proves the assertion
	// machinery is alive.
	MuteRule string
	// Recorder, when non-nil, receives every scrape snapshot and every
	// firing/resolved trace event (failure-dump wiring).
	Recorder *telemetry.FlightRecorder
}

// DefaultAlertEpisode returns the standard episode shape.
func DefaultAlertEpisode(family AlertFamily, seed int64) AlertEpisodeConfig {
	return AlertEpisodeConfig{Family: family, Seed: seed, Seconds: 12, OpsPerSec: 20}
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
	if cfg.Seconds <= 0 {
		cfg.Seconds = 12
	}
	if cfg.OpsPerSec <= 0 {
		cfg.OpsPerSec = 20
	}
	res := &AlertEpisodeResult{Family: cfg.Family, Seed: cfg.Seed}
	contract, ok := contractFor(cfg.Family)
	if !ok {
		res.Violations = append(res.Violations, fmt.Sprintf("unknown alert family %q", cfg.Family))
		return res
	}

	reg := telemetry.NewRegistry()
	clk := clock.NewSim()
	sc := telemetry.NewScraper(clk, reg, time.Second)
	eng := slo.New(slo.Config{Registry: reg, Window: 16})
	eng.AddRules(ChaosRulePack())
	if cfg.MuteRule != "" {
		eng.Mute(cfg.MuteRule)
	}
	if cfg.Recorder != nil {
		sc.OnSnapshot(cfg.Recorder.RecordSnapshot)
		eng.SetEventSink(cfg.Recorder.RecordEvent)
	}
	sc.OnSnapshot(eng.Observe)

	clock.Run(clk, func() {
		switch cfg.Family {
		case FamilyCrashRestart:
			runRestartAlertScenario(cfg, clk, reg, sc)
		default:
			runClusterAlertScenario(cfg, clk, reg, sc)
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

	for _, name := range contract.MustFire {
		if !fired[name] {
			res.Violations = append(res.Violations,
				fmt.Sprintf("family %s: must-fire alert %q never fired", cfg.Family, name))
		}
	}
	for _, name := range contract.MustNotFire {
		if fired[name] {
			res.Violations = append(res.Violations,
				fmt.Sprintf("family %s: must-not-fire alert %q fired", cfg.Family, name))
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

// alertStoreConfig is the episode store shape shared by the live-cluster
// scenarios: modest real latencies (so the latency SLO has signal),
// durable media (so the WAL-stall absence rule sees appends married to
// commits), and the injector's shard-service hook armed.
func alertStoreConfig(clk *clock.Sim, reg *telemetry.Registry, inj *Injector, dur *ndb.Durable) ndb.Config {
	c := ndb.DefaultConfig()
	c.RTT = 100 * time.Microsecond
	c.ReadService = 30 * time.Microsecond
	c.WriteService = 60 * time.Microsecond
	c.OnShardService = inj.NDBOnShardService
	c.Metrics = reg
	c.Durable = dur
	return c
}

// runClusterAlertScenario drives a three-engine cluster with a seeded
// op mix for cfg.Seconds virtual seconds, scraping once per second, and
// injects the family's fault at seconds 4 and 7. The tenant-storm family
// (tenantstorm.go) additionally gates the engines with an admission
// registry and tags every request with a tenant.
func runClusterAlertScenario(cfg AlertEpisodeConfig, clk *clock.Sim, reg *telemetry.Registry, sc *telemetry.Scraper) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	inj := NewInjector()

	ckptCfg := lsm.DefaultConfig()
	ckptCfg.PutLatency, ckptCfg.ProbeLatency = 0, 0
	ckptCfg.FlushPerEntry, ckptCfg.CompactPerEntry = 0, 0
	dur := ndb.NewDurable(clk, 4, ckptCfg)
	db := ndb.New(clk, alertStoreConfig(clk, reg, inj, dur))

	ccfg := coordinator.DefaultConfig()
	ccfg.HopLatency = 50 * time.Microsecond
	ccfg.Metrics = reg
	ccfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(db, id) }
	zk := coordinator.NewZK(clk, ccfg)

	ring := partition.NewRing(1, 0)
	ecfg := core.DefaultEngineConfig()
	ecfg.OpCPUCost = 0
	ecfg.SubtreeCPUPerINode = 0
	ecfg.Metrics = reg
	// Untagged requests bypass admission, so one empty tenant is the
	// op mix of every family that does not exercise it.
	tenants := []string{""}
	if cfg.Family == FamilyTenantStorm {
		ecfg.Admission = stormTenants(clk, reg)
		tenants = stormMix
	}

	nnSeq := 0
	engines := make([]*core.Engine, 3)
	sessions := make([]coordinator.Session, 3)
	spawn := func(slot int) {
		id := fmt.Sprintf("nn-%d", nnSeq)
		nnSeq++
		e := core.NewEngine(id, 0, clk, db, ring, zk, nil, ecfg)
		engines[slot] = e
		sessions[slot] = zk.Register(0, id, e.HandleInvalidation)
		zk.TryLead(LeaderGroup, id)
	}
	for i := range engines {
		spawn(i)
	}
	// Slot 0 registered first, so it holds leadership; the instance-kill
	// scenario only ever expires slots 1 and 2, keeping the leader (and
	// the leader-flap alert) untouched.

	seqs := make([]uint64, 4)
	randPath := func() string {
		n := rng.Intn(3) + 1
		p := ""
		for i := 0; i < n; i++ {
			p += fmt.Sprintf("/n%d", rng.Intn(4))
		}
		return p
	}
	step := func(tenantName string) {
		client := rng.Intn(len(seqs))
		engine := engines[rng.Intn(len(engines))]
		var op namespace.OpType
		switch rng.Intn(8) {
		case 0, 1, 2:
			op = namespace.OpMkdirs
		case 3, 4:
			op = namespace.OpCreate
		case 5:
			op = namespace.OpStat
		case 6:
			op = namespace.OpLs
		default:
			op = namespace.OpRead
		}
		seqs[client]++
		engine.Execute(namespace.Request{
			Op: op, Path: randPath(), Tenant: tenantName,
			ClientID: fmt.Sprintf("c%d", client), Seq: seqs[client],
		})
	}

	for sec := 0; sec < cfg.Seconds; sec++ {
		fault := sec == 4 || sec == 7
		if fault {
			switch cfg.Family {
			case FamilyInstanceKill:
				slot := 1 + rng.Intn(2) // never the leader in slot 0
				old := engines[slot].ID()
				zk.ExpireSession(old)
				inj.NoteFired(FaultLeaseExpiry, "nn="+old)
				spawn(slot)
			case FamilyShardFault:
				// Stall every shard for the next ops: raw op latency jumps
				// ~5ms, far over the 2ms p99 bound.
				for shard := 0; shard < 4; shard++ {
					inj.ArmShardStall(shard, 5*time.Millisecond, cfg.OpsPerSec)
				}
			case FamilyLeaderDepose:
				zk.Depose(LeaderGroup)
				inj.NoteFired(FaultLeaderFlap, "scripted depose")
			}
		}
		for i := 0; i < cfg.OpsPerSec; i++ {
			step(tenants[i%len(tenants)])
		}
		if fault && cfg.Family == FamilyTenantStorm {
			// The storm follows the second's steady ops, which keep the
			// crawler inside its 5 ops/s budget: it fires 20× the per-second
			// op count in one burst at a drained bucket, which admits a
			// handful; admission rejects the rest before any CPU or store
			// work happens.
			for i := 0; i < cfg.OpsPerSec*20; i++ {
				step("crawler")
			}
			inj.NoteFired(FaultTenantStorm, fmt.Sprintf("sec=%d tenant=crawler", sec))
		}
		clk.Sleep(time.Second)
		sc.ScrapeNow()
	}
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
}

// runRestartAlertScenario commits a seeded stream against a durable
// store, then crashes and recovers it with a per-record replay charge
// large enough to breach the recovery-time ceiling. Commits continue on
// the recovered store afterwards, proving the WAL keeps pace (the
// absence rule stays quiet).
func runRestartAlertScenario(cfg AlertEpisodeConfig, clk *clock.Sim, reg *telemetry.Registry, sc *telemetry.Scraper) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	inj := NewInjector()

	ckptCfg := lsm.DefaultConfig()
	ckptCfg.PutLatency, ckptCfg.ProbeLatency = 0, 0
	ckptCfg.FlushPerEntry, ckptCfg.CompactPerEntry = 0, 0
	dur := ndb.NewDurable(clk, 4, ckptCfg)

	storeCfg := func() ndb.Config {
		c := alertStoreConfig(clk, reg, inj, dur)
		// Each replayed record charges 50ms of virtual recovery time: a
		// crash after ~30 commits recovers in ~1.5s, breaching the 500ms
		// ceiling deterministically.
		c.Durability = ndb.DurabilityConfig{ReplayPerRecord: 50 * time.Millisecond}
		return c
	}
	db := ndb.New(clk, storeCfg())

	seq := 0
	commitOne := func() {
		seq++
		id := db.NextID()
		tx := db.Begin("alerts")
		err := tx.PutINode(&namespace.INode{
			ID: id, ParentID: namespace.RootID,
			Name: fmt.Sprintf("f%d-%d", seq, rng.Intn(1000)),
			Perm: namespace.PermDefaultFile,
		})
		if err != nil {
			tx.Abort()
			return
		}
		_ = tx.Commit()
	}

	crashAt := cfg.Seconds / 2
	for sec := 0; sec < cfg.Seconds; sec++ {
		if sec == crashAt {
			// Crash: abandon the live store, recover from media.
			recovered, _, err := ndb.Recover(clk, storeCfg())
			if err == nil {
				db = recovered
			}
			inj.NoteFired(FaultCrashRestart, fmt.Sprintf("sec=%d", sec))
		}
		for i := 0; i < cfg.OpsPerSec/2; i++ {
			commitOne()
		}
		clk.Sleep(time.Second)
		sc.ScrapeNow()
	}
}
