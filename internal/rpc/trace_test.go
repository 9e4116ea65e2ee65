package rpc

import (
	"sync"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// TestHedgedRetryEmitsEvent forces a straggler (the first instance blocks
// on its first read) and checks the hedged retry is recorded as a
// structured event with the straggling instance attached.
func TestHedgedRetryEmitsEvent(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.Hedging = true
		cfg.StragglerThreshold = 2
		cfg.StragglerFloor = 10 * time.Millisecond
		cfg.LatencyWindow = 4

		p := faas.New(clk, fastFaasCfg())
		defer p.Close()
		block := clock.NewEvent(clk)
		var nns []*testNN
		var mu sync.Mutex
		p.Register("nn", func(inst *faas.Instance) faas.App {
			mu.Lock()
			defer mu.Unlock()
			nn := &testNN{inst: inst}
			if len(nns) == 0 {
				nn.block = block // only the first instance stalls
			}
			nns = append(nns, nn)
			return nn
		}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8})

		vm := NewVM(clk, cfg)
		tr := trace.New(clk, trace.Config{})
		vm.SetTracer(tr) // before NewClient: clients capture the tracer at creation
		c := vm.NewClient("c1", partition.NewRing(1, 0), platformInvoker{p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			c.window.Add(time.Millisecond)
		}
		start := clk.Now()
		resp, err := c.Do(namespace.OpRead, "/a", "")
		if err == nil && !resp.OK() {
			err = resp.Error()
		}
		if err != nil {
			t.Fatalf("hedged op failed: %v", err)
		}
		block.Set()

		evs := tr.EventsOf(trace.EventHedgedRetry)
		if len(evs) == 0 {
			t.Fatal("no hedged_retry event emitted")
		}
		ev := evs[0]
		if ev.Client != "c1" {
			t.Fatalf("event client = %q", ev.Client)
		}
		if ev.Instance == "" {
			t.Fatal("event missing straggling instance")
		}
		if ev.Dur != cfg.StragglerFloor {
			t.Fatalf("event threshold dur = %v, want the straggler floor %v", ev.Dur, cfg.StragglerFloor)
		}
		if at := ev.Time.Sub(start); at != cfg.StragglerFloor {
			t.Fatalf("event stamped %v into the read, want the hedge instant %v", at, cfg.StragglerFloor)
		}
	})
}

// TestAntiThrashEventsVirtualTimestamps drives a latency collapse and
// checks the enter/exit events carry exact virtual
// timestamps: enter at the trigger instant with the hold as duration, exit
// stamped at antiThrashUntil even though it is observed (lazily) later.
func TestAntiThrashEventsVirtualTimestamps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.AntiThrashThreshold = 2
		cfg.AntiThrashHold = 500 * time.Millisecond
		cfg.LatencyWindow = 4
		cfg.StragglerFloor = 0

		tr := trace.New(clk, trace.Config{})
		vm := NewVM(clk, cfg)
		vm.SetTracer(tr)
		c := vm.NewClient("c1", partition.NewRing(1, 0), nil)

		for i := 0; i < 4; i++ {
			c.window.Add(time.Millisecond)
		}
		enterAt := clk.Now()
		c.noteLatency(100 * time.Millisecond)
		if !c.inAntiThrash() {
			t.Fatal("anti-thrashing mode not entered")
		}
		enters := tr.EventsOf(trace.EventAntiThrashEnter)
		if len(enters) != 1 {
			t.Fatalf("enter events = %d", len(enters))
		}
		if !enters[0].Time.Equal(enterAt) {
			t.Fatalf("enter time = %v, want %v", enters[0].Time, enterAt)
		}
		if enters[0].Dur != cfg.AntiThrashHold {
			t.Fatalf("enter dur = %v, want hold %v", enters[0].Dur, cfg.AntiThrashHold)
		}

		// The mode expires passively at antiThrashUntil; the exit event is
		// emitted on the next check but stamped with the expiry instant.
		clk.Sleep(cfg.AntiThrashHold + 17*time.Second)
		if c.inAntiThrash() {
			t.Fatal("mode did not expire")
		}
		exits := tr.EventsOf(trace.EventAntiThrashExit)
		if len(exits) != 1 {
			t.Fatalf("exit events = %d", len(exits))
		}
		wantExit := enterAt.Add(cfg.AntiThrashHold)
		if !exits[0].Time.Equal(wantExit) {
			t.Fatalf("exit time = %v, want expiry %v (not observation time %v)",
				exits[0].Time, wantExit, clk.Now())
		}

		// Re-trigger without an intervening check: the pending exit must be
		// flushed before the new enter so events stay in timestamp order.
		clk.Sleep(time.Second)
		reEnterAt := clk.Now()
		c.noteLatency(10 * time.Second)
		if got := len(tr.EventsOf(trace.EventAntiThrashEnter)); got != 2 {
			t.Fatalf("enter events after re-trigger = %d", got)
		}
		second := tr.EventsOf(trace.EventAntiThrashEnter)[1]
		if !second.Time.Equal(reEnterAt) {
			t.Fatalf("re-enter time = %v, want %v", second.Time, reEnterAt)
		}
		// Expire again and observe: exit stamped at the *second* hold's expiry.
		clk.Sleep(cfg.AntiThrashHold + time.Minute)
		if c.inAntiThrash() {
			t.Fatal("second hold did not expire")
		}
		exits = tr.EventsOf(trace.EventAntiThrashExit)
		if len(exits) != 2 {
			t.Fatalf("exit events = %d", len(exits))
		}
		if !exits[1].Time.Equal(reEnterAt.Add(cfg.AntiThrashHold)) {
			t.Fatalf("second exit time = %v, want %v", exits[1].Time, reEnterAt.Add(cfg.AntiThrashHold))
		}
		// Events must be globally timestamp-ordered despite lazy exit emission.
		all := tr.Events()
		for i := 1; i < len(all); i++ {
			if all[i].Time.Before(all[i-1].Time) {
				t.Fatalf("events out of timestamp order: %v after %v", all[i].Time, all[i-1].Time)
			}
		}
	})
}

// TestRacedReadCriticalPath: a replaced read whose TCP call answers first
// is that call on its critical path. The invocation racing it runs its
// gateway hop, admission and engine execution inside the read's window and
// its return hop past the end: every one of those spans is recorded, on
// the trace and none dropped, and each lies off the path.
func TestRacedReadCriticalPath(t *testing.T) { racedCriticalPath(t, namespace.OpRead) }

// TestRacedWriteCriticalPath: a replaced write races as a read does, so
// neither the HTTP call nor the gateway is on its critical path.
func TestRacedWriteCriticalPath(t *testing.T) { racedCriticalPath(t, namespace.OpCreate) }

func racedCriticalPath(t *testing.T, op namespace.OpType) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.HTTPReplaceProb = 1
		cfg.TCPOneWay = time.Millisecond
		fcfg := fastFaasCfg()
		fcfg.GatewayLatency = 1200 * time.Microsecond
		h := newHarnessOn(t, clk, 1, cfg, fcfg)
		tr := trace.New(clk, trace.Config{})
		h.vm.SetTracer(tr)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		h.nns[0].exec = 500 * time.Microsecond
		tr.Reset()

		// TCP: 1ms out, 0.5ms engine, 1ms back: the op answers at 2.5ms.
		// HTTP: gateway to 1.2ms, engine to 1.7ms, gateway back to 2.9ms.
		start := clk.Now()
		if _, err := c.Do(op, "/a", ""); err != nil {
			t.Fatal(err)
		}
		if took := clk.Since(start); took != 2500*time.Microsecond {
			t.Fatalf("raced %v answered after %v, want the TCP call's 2.5ms", op, took)
		}
		clk.Sleep(10 * time.Millisecond) // the invocation finishes
		traces := tr.Traces()
		if len(traces) != 1 {
			t.Fatalf("%d traces, want 1", len(traces))
		}
		count := map[trace.Kind]int{}
		for _, sp := range traces[0].Spans() {
			count[sp.Kind]++
		}
		want := map[trace.Kind]int{
			trace.KindRPCTCP: 1, trace.KindRPCTCPNet: 2, trace.KindRPCHTTP: 1,
			trace.KindGateway: 2, trace.KindAdmit: 1, trace.KindEngineExec: 2,
		}
		for k, n := range want {
			if count[k] != n {
				t.Errorf("%d %s spans recorded, want %d", count[k], k, n)
			}
		}
		if _, dropped, _ := tr.Dropped(); dropped != 0 {
			t.Errorf("%d spans dropped", dropped)
		}

		co := trace.Aggregate(traces).Op(op.String()).Cohort
		for k, want := range map[trace.Kind]time.Duration{
			trace.KindRPCTCPNet: 2 * time.Millisecond, trace.KindEngineExec: 500 * time.Microsecond,
			trace.KindRPCTCP: 0, trace.KindRPCHTTP: 0, trace.KindGateway: 0, trace.KindAdmit: 0,
		} {
			if ks := co.Kind(k); ks == nil || ks.Total != want {
				t.Errorf("%s on the critical path: %+v, want %v", k, ks, want)
			}
		}
		if co.Untraced() != 0 {
			t.Errorf("untraced = %v, want 0", co.Untraced())
		}
	})
}
