package slo

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

func snapAt(sec int, vals map[string]float64) telemetry.Snapshot {
	return telemetry.Snapshot{Time: clock.Epoch.Add(time.Duration(sec) * time.Second), Values: vals}
}

func states(e *Engine) map[string]string {
	out := make(map[string]string)
	for _, st := range e.Status() {
		out[st.Name] = st.State
	}
	return out
}

func TestThresholdHoldAndResolve(t *testing.T) {
	e := New(Config{})
	e.AddRule(Threshold("depth", "lambdafs_ndb_queue_depth", SignalValue, OpGreater, 5, 2))

	var events []trace.Event
	e.SetEventSink(func(ev trace.Event) { events = append(events, ev) })

	// Tick 1: breach → pending (hold=2 not yet met).
	e.Observe(snapAt(1, map[string]float64{`lambdafs_ndb_queue_depth{shard="0"}`: 9}))
	if s := states(e)["depth"]; s != StatePending {
		t.Fatalf("after 1 breach tick: state %s, want pending", s)
	}
	// Tick 2: second consecutive breach → firing.
	e.Observe(snapAt(2, map[string]float64{`lambdafs_ndb_queue_depth{shard="0"}`: 7}))
	if s := states(e)["depth"]; s != StateFiring {
		t.Fatalf("after 2 breach ticks: state %s, want firing", s)
	}
	// Tick 3: below bound → resolved to inactive.
	e.Observe(snapAt(3, map[string]float64{`lambdafs_ndb_queue_depth{shard="0"}`: 1}))
	if s := states(e)["depth"]; s != StateInactive {
		t.Fatalf("after recovery: state %s, want inactive", s)
	}

	trs := e.Transitions()
	if len(trs) != 2 || trs[0].To != StateFiring || trs[1].To != StateInactive {
		t.Fatalf("transitions = %+v, want firing then resolved", trs)
	}
	if trs[0].TUS != 2_000_000 || trs[1].TUS != 3_000_000 {
		t.Fatalf("transition timestamps %d,%d — want virtual-time 2s,3s", trs[0].TUS, trs[1].TUS)
	}
	if len(events) != 2 || events[0].Type != trace.EventSLOFiring || events[1].Type != trace.EventSLOResolved {
		t.Fatalf("trace events = %+v", events)
	}

	var buf bytes.Buffer
	if err := e.WriteAlertsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"rule":"depth"`) {
		t.Fatalf("alert JSONL:\n%s", buf.String())
	}
}

func TestValueAggregatesMaxAcrossLabelSets(t *testing.T) {
	e := New(Config{})
	e.AddRule(Threshold("depth", "lambdafs_ndb_queue_depth", SignalValue, OpGreater, 5, 1))
	e.Observe(snapAt(1, map[string]float64{
		`lambdafs_ndb_queue_depth{shard="0"}`: 1,
		`lambdafs_ndb_queue_depth{shard="1"}`: 8,  // worst shard trips the rule
		`lambdafs_ndb_queue_depths_other`:     99, // different instrument, ignored
	}))
	if s := states(e)["depth"]; s != StateFiring {
		t.Fatalf("state %s, want firing on worst shard", s)
	}
}

func TestDeltaSumsCountersAndClampsResets(t *testing.T) {
	e := New(Config{})
	e.AddRule(Threshold("exp", "lambdafs_coordinator_lease_expiries_total", SignalDelta, OpGreater, 0.5, 1))
	// First tick only seeds the delta base.
	e.Observe(snapAt(1, map[string]float64{"lambdafs_coordinator_lease_expiries_total": 10}))
	if s := states(e)["exp"]; s != StateInactive {
		t.Fatalf("first tick: state %s, want inactive (no delta base)", s)
	}
	// Counter reset (value drops): clamped to 0, not negative — stays quiet.
	e.Observe(snapAt(2, map[string]float64{"lambdafs_coordinator_lease_expiries_total": 0}))
	if s := states(e)["exp"]; s != StateInactive {
		t.Fatalf("reset tick: state %s, want inactive", s)
	}
	// Real increase fires.
	e.Observe(snapAt(3, map[string]float64{"lambdafs_coordinator_lease_expiries_total": 2}))
	if s := states(e)["exp"]; s != StateFiring {
		t.Fatalf("increase tick: state %s, want firing", s)
	}
}

func TestEWMASmoothsSpikes(t *testing.T) {
	e := New(Config{})
	e.AddRule(Threshold("sat", "lambdafs_ndb_queue_depth", SignalEWMA, OpGreater, 8, 1))
	// One-tick spike to 20: EWMA from 0 is 0.3*20 = 6 < 8, stays quiet.
	e.Observe(snapAt(1, map[string]float64{"lambdafs_ndb_queue_depth": 0}))
	e.Observe(snapAt(2, map[string]float64{"lambdafs_ndb_queue_depth": 20}))
	if s := states(e)["sat"]; s == StateFiring {
		t.Fatalf("one-tick spike fired through EWMA smoothing")
	}
	// Sustained load converges above the bound.
	for i := 3; i < 10; i++ {
		e.Observe(snapAt(i, map[string]float64{"lambdafs_ndb_queue_depth": 20}))
	}
	if s := states(e)["sat"]; s != StateFiring {
		t.Fatalf("sustained saturation: state %s, want firing", s)
	}
}

func TestBurnRateMultiWindow(t *testing.T) {
	// 50% error budget burn factor 2 on a 10% budget → fire above 20%
	// error ratio on BOTH a 2-tick fast and 6-tick slow window.
	mk := func() *Engine {
		e := New(Config{})
		e.AddRule(BurnRate("burn", "lambdafs_faas_cold_starts_total", "lambdafs_faas_invocations_total",
			0.90, 2, 2, 6))
		return e
	}
	feed := func(e *Engine, tick int, cold, total float64) {
		e.Observe(snapAt(tick, map[string]float64{
			"lambdafs_faas_cold_starts_total": cold,
			"lambdafs_faas_invocations_total": total,
		}))
	}

	// Sustained 50% cold-start ratio: must fire once the slow window fills.
	e := mk()
	cold, total := 0.0, 0.0
	for i := 1; i <= 10; i++ {
		cold += 5
		total += 10
		feed(e, i, cold, total)
	}
	if s := states(e)["burn"]; s != StateFiring {
		t.Fatalf("sustained burn: state %s, want firing", s)
	}

	// A single bad tick inside an otherwise clean stream must NOT fire:
	// the slow window dilutes it below the budget.
	e = mk()
	cold, total = 0, 0
	for i := 1; i <= 12; i++ {
		if i == 8 {
			cold += 10 // one tick of 100% cold starts
		}
		total += 10
		feed(e, i, cold, total)
	}
	if s := states(e)["burn"]; s == StateFiring {
		t.Fatalf("single-tick spike fired a multi-window burn rule")
	}
}

func TestAbsenceDetectsStalledProgress(t *testing.T) {
	e := New(Config{})
	e.AddRule(Absence("wal", "lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 3))
	feed := func(tick int, appends, writes float64) {
		e.Observe(snapAt(tick, map[string]float64{
			"lambdafs_ndb_wal_appends_total": appends,
			"lambdafs_ndb_writes_total":      writes,
		}))
	}
	// Healthy: both advance together.
	a, c := 0.0, 0.0
	for i := 1; i <= 5; i++ {
		a += 3
		c += 3
		feed(i, a, c)
	}
	if s := states(e)["wal"]; s != StateInactive {
		t.Fatalf("healthy stream: state %s", s)
	}
	// Stall: writes keep advancing, appends freeze → fires after the
	// 3-tick hold window drains of append progress.
	for i := 6; i <= 9; i++ {
		c += 3
		feed(i, a, c)
	}
	if s := states(e)["wal"]; s != StateFiring {
		t.Fatalf("stalled WAL: state %s, want firing", s)
	}
	// Appends resume → resolves.
	a += 1
	c += 3
	feed(10, a, c)
	if s := states(e)["wal"]; s != StateInactive {
		t.Fatalf("resumed WAL: state %s, want inactive", s)
	}
	// Idle system (no writes either) never counts as a stall.
	e2 := New(Config{})
	e2.AddRule(Absence("wal", "lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 2))
	for i := 1; i <= 6; i++ {
		feed2 := snapAt(i, map[string]float64{
			"lambdafs_ndb_wal_appends_total": 5,
			"lambdafs_ndb_writes_total":      9,
		})
		e2.Observe(feed2)
	}
	if s := states(e2)["wal"]; s != StateInactive {
		t.Fatalf("idle system: state %s, want inactive", s)
	}
	// Unarmed: the watched metric never advanced this session (e.g. a
	// store with no durable media attached registers the WAL counter but
	// never increments it), so writes advancing alone is not a stall.
	e3 := New(Config{})
	e3.AddRule(Absence("wal", "lambdafs_ndb_wal_appends_total", "lambdafs_ndb_writes_total", 2))
	for i := 1; i <= 8; i++ {
		e3.Observe(snapAt(i, map[string]float64{
			"lambdafs_ndb_wal_appends_total": 0,
			"lambdafs_ndb_writes_total":      float64(i * 3),
		}))
	}
	if s := states(e3)["wal"]; s != StateInactive {
		t.Fatalf("never-armed absence rule: state %s, want inactive", s)
	}
}

// TestWALStallRuleWatchesWrites: the default pack's WAL stall rule takes
// rows written as its activity, since only a commit that writes appends to
// the WAL. Read-only commits advancing beside a silent WAL never fire it;
// rows written beside a silent WAL do.
func TestWALStallRuleWatchesWrites(t *testing.T) {
	var rule Rule
	for _, r := range DefaultRules() {
		if r.Name == "wal_fsync_stall" {
			rule = r
		}
	}
	run := func(writesPerTick float64) string {
		e := New(Config{})
		e.AddRule(rule)
		var appends, writes, commits float64
		for i := 1; i <= 10; i++ {
			commits += 5
			if i <= 2 { // healthy: every counter advances, arming the rule
				appends += 2
				writes += 2
			} else {
				writes += writesPerTick
			}
			e.Observe(snapAt(i, map[string]float64{
				"lambdafs_ndb_wal_appends_total": appends,
				"lambdafs_ndb_writes_total":      writes,
				"lambdafs_ndb_tx_commits_total":  commits,
			}))
			if s := states(e)[rule.Name]; s == StateFiring {
				return s
			}
		}
		return states(e)[rule.Name]
	}
	if s := run(0); s == StateFiring {
		t.Errorf("read-only commits beside a silent WAL: %s, want never firing", s)
	}
	if s := run(3); s != StateFiring {
		t.Errorf("rows written beside a silent WAL: %s, want firing", s)
	}
}

func TestQuantileRuleOverScrapedHistogram(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// End-to-end through the real registry + scraper: observe latencies
		// into a telemetry histogram, scrape once a virtual second, and let the
		// windowed quantile trip a p99 rule.
		reg := telemetry.NewRegistry()
		sc := telemetry.NewScraper(clk, reg, time.Second)
		e := New(Config{Registry: reg, Window: 4})
		e.AddRule(QuantileThreshold("p99", "lambdafs_coordinator_inv_latency_seconds", 0.99, OpGreater, 5e-3, 1))
		sc.OnSnapshot(e.Observe)

		h := reg.Histogram("lambdafs_coordinator_inv_latency_seconds")
		// Fast traffic: p99 ~1ms, far under the 5ms bound.
		for i := 0; i < 100; i++ {
			h.Observe(time.Millisecond)
		}
		clk.Sleep(time.Second)
		sc.ScrapeNow()
		if s := states(e)["p99"]; s != StateInactive {
			t.Fatalf("fast traffic: state %s, want inactive", s)
		}
		// Slow burst: 20ms observations dominate the new deltas.
		for i := 0; i < 400; i++ {
			h.Observe(20 * time.Millisecond)
		}
		clk.Sleep(time.Second)
		sc.ScrapeNow()
		if s := states(e)["p99"]; s != StateFiring {
			t.Fatalf("slow burst: state %s, want firing (value %v)", s, states(e))
		}
		// The lambdafs_slo_* instruments must reflect the transition.
		snap := sc.ScrapeNow()
		if v := snap.Values[`lambdafs_slo_firing{rule="p99"}`]; v != 1 {
			t.Fatalf("lambdafs_slo_firing gauge = %g, want 1", v)
		}
		if v := snap.Values[`lambdafs_slo_transitions_total{rule="p99"}`]; v != 1 {
			t.Fatalf("transitions counter = %g, want 1", v)
		}
		if v := snap.Values["lambdafs_slo_rules"]; v != 1 {
			t.Fatalf("rules gauge = %g, want 1", v)
		}
	})
}

// TestQuantileRuleSeesItsWindow pins "windowed, not cumulative" on both
// sides. Old history must not dilute a bad tick: once 10,000 healthy
// observations have aged out of the window, 50 slow ones fire a p99 rule
// (the lifetime p99 stays at 1ms). And a bad tick must not outlive the
// window: healthy traffic resolves the alert Window ticks later (the
// lifetime p99 stays slow until slow observations drop under 1% of
// everything ever recorded). Each script runs unlabelled and spread over
// two label sets, which covers the cross-label merge.
func TestQuantileRuleSeesItsWindow(t *testing.T) {
	const metric = "lambdafs_core_op_latency_seconds"
	const window = 4
	type step struct {
		ticks int // scrape ticks of this traffic
		n     int // observations per tick
		d     time.Duration
		want  string // rule state after the last of them
	}
	scripts := map[string][]step{
		"old history does not dilute": {
			{1, 10000, time.Millisecond, StateInactive},
			{window, 100, time.Millisecond, StateInactive}, // the 10,000 age out
			{1, 50, 20 * time.Millisecond, StateFiring},
			{1, 100, time.Millisecond, StateFiring}, // slow tick still inside the window
			{window, 100, time.Millisecond, StateInactive},
		},
		"bad tick does not outlive the window": {
			{1, 100, time.Millisecond, StateInactive},
			{1, 400, 20 * time.Millisecond, StateFiring},
			{window + 1, 100, time.Millisecond, StateInactive},
		},
	}
	labelSets := map[string][][]telemetry.Label{
		"unlabelled":     {nil},
		"two label sets": {{telemetry.L("op", "read")}, {telemetry.L("op", "write")}},
	}
	for name, script := range scripts {
		for lname, labels := range labelSets {
			t.Run(name+"/"+lname, func(t *testing.T) {
				simtest.Run(t, func(clk *clock.Sim) {
					reg := telemetry.NewRegistry()
					sc := telemetry.NewScraper(clk, reg, time.Second)
					e := New(Config{Window: window})
					e.AddRule(QuantileThreshold("p99", metric, 0.99, OpGreater, 5e-3, 1))
					sc.OnSnapshot(e.Observe)
					for i, st := range script {
						for k := 0; k < st.ticks; k++ {
							for j := 0; j < st.n; j++ {
								reg.Histogram(metric, labels[j%len(labels)]...).Observe(st.d)
							}
							clk.Sleep(time.Second)
							sc.ScrapeNow()
						}
						if s := states(e)["p99"]; s != st.want {
							t.Fatalf("step %d (%d ticks of %d × %v): state %s, want %s (%+v)",
								i, st.ticks, st.n, st.d, s, st.want, e.Status())
						}
					}
					trs := e.Transitions()
					if len(trs) != 2 || trs[0].To != StateFiring || trs[1].To != StateInactive {
						t.Fatalf("transitions = %+v, want firing then resolved", trs)
					}
				})
			})
		}
	}
}

// TestEngineConcurrentScrapeAndStatus is the -race test for the engine
// mutex: the scraper goroutine drives Observe while the instrumented hot
// path keeps recording and a display surface polls the read API.
func TestEngineConcurrentScrapeAndStatus(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := simtest.New(t)
	sc := telemetry.NewScraper(clk, reg, time.Millisecond)
	e := New(Config{Registry: reg, Window: 2})
	e.AddRule(QuantileThreshold("p99", "lambdafs_core_op_latency_seconds", 0.99, OpGreater, 5e-3, 1))
	sc.OnSnapshot(e.Observe)

	// The recorder and the poller are host goroutines, outside the
	// simulation like an instrumented caller and a dashboard; the scrape
	// loop ticks on the clock for 200 virtual milliseconds meanwhile.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := reg.Histogram("lambdafs_core_op_latency_seconds")
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Observe(time.Duration(j%20) * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sc.ScrapeNow()
			_ = e.Status()
			_ = e.Firing()
			_ = e.Transitions()
		}
	}()
	clock.Run(clk, func() {
		sc.Start()
		clk.Sleep(200 * time.Millisecond)
		sc.Stop()
	})
	close(stop)
	wg.Wait()
	if n := len(sc.Snapshots()); n < 199 {
		t.Fatalf("scrape loop ticked %d times in 200 intervals", n)
	}
	if sc.HookPanics() != 0 {
		t.Fatalf("engine panicked inside %d scrape hooks", sc.HookPanics())
	}
}

func TestMuteSuppressesTransitions(t *testing.T) {
	e := New(Config{})
	e.AddRule(Threshold("depth", "lambdafs_ndb_queue_depth", SignalValue, OpGreater, 5, 1))
	e.Mute("depth")
	for i := 1; i <= 5; i++ {
		e.Observe(snapAt(i, map[string]float64{"lambdafs_ndb_queue_depth": 50}))
	}
	if s := states(e)["depth"]; s != StateInactive {
		t.Fatalf("muted rule reached state %s", s)
	}
	if trs := e.Transitions(); len(trs) != 0 {
		t.Fatalf("muted rule logged transitions: %+v", trs)
	}
	st := e.Status()
	if len(st) != 1 || !st[0].Muted {
		t.Fatalf("status does not mark rule muted: %+v", st)
	}
}

func TestDefaultRulesRegisterCleanly(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Registry: reg})
	e.AddRules(DefaultRules())
	if got := len(e.Status()); got != 6 {
		t.Fatalf("default pack has %d rules, want 6", got)
	}
	// A quiet snapshot stream must not fire anything.
	for i := 1; i <= 20; i++ {
		e.Observe(snapAt(i, map[string]float64{}))
	}
	if f := e.Firing(); len(f) != 0 {
		t.Fatalf("default pack fired on an idle system: %v", f)
	}
}
