package trace

import (
	"slices"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// TestCriticalPathSequential checks exact attribution on a tree of
// sequential children: every instant of the window lands on exactly one
// kind, parents keep only the stretches their children don't cover.
func TestCriticalPathSequential(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		// stat: 10ms e2e. exec spans 9ms with two sequential children:
		// ndb.rtt 3ms, then a 1ms think gap, then ndb.service 4ms; 1ms of exec
		// tail and 1ms of untraced client time.
		tc := tr.StartTrace("stat", "/a", "c1")
		exec := tc.Start(KindEngineExec)
		rtt := exec.Ctx().Start(KindStoreRTT)
		rtt.AddStoreHops(11)
		clk.Sleep(3 * time.Millisecond)
		rtt.End()
		clk.Sleep(time.Millisecond)
		svc := exec.Ctx().Start(KindStoreService)
		clk.Sleep(4 * time.Millisecond)
		svc.End()
		clk.Sleep(time.Millisecond)
		exec.End()
		clk.Sleep(time.Millisecond)
		tc.Finish("")

		op := Aggregate(tr.Traces()).Op("stat")
		if op == nil || op.Count != 1 {
			t.Fatalf("op missing: %+v", op)
		}
		co := op.P99
		want := map[Kind]time.Duration{
			KindStoreRTT:     3 * time.Millisecond,
			KindStoreService: 4 * time.Millisecond,
			KindEngineExec:   2 * time.Millisecond, // 1ms inter-child gap + 1ms tail
		}
		for k, d := range want {
			ck := co.Kind(k)
			if ck == nil || ck.Total != d {
				t.Fatalf("%s path = %+v, want %v", k, ck, d)
			}
		}
		if co.Untraced() != time.Millisecond {
			t.Fatalf("untraced = %v, want 1ms", co.Untraced())
		}
		var sum time.Duration
		for _, ck := range co.Ranked() {
			sum += ck.Total
		}
		if sum+co.Untraced() != co.E2ETotal {
			t.Fatalf("path sum %v + gap %v != e2e %v", sum, co.Untraced(), co.E2ETotal)
		}
		// Ledger rides along on the report.
		if rtt := co.Kind(KindStoreRTT); rtt.Res.StoreHops != 11 {
			t.Fatalf("rtt ledger = %+v", rtt.Res)
		}
		// Ranked: service (4ms) > rtt (3ms) > exec (2ms).
		ranked := co.Ranked()
		if ranked[0].Kind != KindStoreService || ranked[1].Kind != KindStoreRTT {
			t.Fatalf("ranking = %v, %v", ranked[0].Kind, ranked[1].Kind)
		}
	})
}

// TestCriticalPathParallel checks that among overlapping children only
// the latest-ending branch is on the path, while every parallel branch
// still counts as a span of its kind.
func TestCriticalPathParallel(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		tc := tr.StartTrace("stat", "/a", "c1")
		exec := tc.Start(KindEngineExec)
		// Four parallel shard services, same start; the longest (4ms) is the
		// pole.
		var spans []*ActiveSpan
		for i := 0; i < 4; i++ {
			spans = append(spans, exec.Ctx().Start(KindStoreService))
		}
		clk.Sleep(2 * time.Millisecond)
		for _, sp := range spans[:3] {
			sp.End()
		}
		clk.Sleep(2 * time.Millisecond)
		spans[3].End()
		exec.End()
		tc.Finish("")

		co := Aggregate(tr.Traces()).Op("stat").P99
		if svc := co.Kind(KindStoreService); svc.Total != 4*time.Millisecond {
			t.Fatalf("service path = %v, want the 4ms pole only", svc.Total)
		}
		if svc := co.Kind(KindStoreService); svc.Spans != 4 {
			t.Fatalf("parallel branches must still count: %+v", svc)
		}
		if ex := co.Kind(KindEngineExec); ex != nil && ex.Total != 0 {
			t.Fatalf("exec fully covered by children, path = %v", ex.Total)
		}
	})
}

// TestCriticalPathSkipsLosingRacer: two racers start together and the
// trace ends when the second-started one answers. The first, still out, is
// cut at the trace end to the same window, and the tie goes to the racer
// that answered: its children are the path, the loser's lie off it.
func TestCriticalPathSkipsLosingRacer(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("read", "/a", "c1")
		loser := tc.Start(KindRPCHTTP)
		winner := tc.Start(KindRPCTCP)
		gw := loser.Ctx().Start(KindGateway)
		net := winner.Ctx().Start(KindRPCTCPNet)
		clk.Sleep(time.Millisecond)
		gw.End()
		net.End()
		exec := winner.Ctx().Start(KindEngineExec)
		clk.Sleep(time.Millisecond)
		exec.End()
		winner.End()
		tc.Finish("")
		clk.Sleep(time.Millisecond)
		loser.End()

		co := Aggregate(tr.Traces()).Op("read").P99
		for _, c := range []struct {
			kind Kind
			want time.Duration
		}{{KindRPCTCPNet, time.Millisecond}, {KindEngineExec, time.Millisecond}, {KindGateway, 0}, {KindRPCHTTP, 0}} {
			if got := co.Kind(c.kind).Total; got != c.want {
				t.Errorf("%s path time = %v, want %v", c.kind, got, c.want)
			}
		}
		if co.Untraced() != 0 {
			t.Errorf("untraced = %v, want 0", co.Untraced())
		}
	})
}

// TestCriticalPathTieBreak pins the deterministic-tie rule: equal path
// times rank the kind with more store hops first, then canonical kind
// order.
func TestCriticalPathTieBreak(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		// Four sequential 3ms spans: ndb.service and ndb.commit bill a hop
		// each, engine.exec and coherence.inv none.
		tc := tr.StartTrace("stat", "/a", "c1")
		for _, k := range []Kind{KindCoherence, KindStoreService, KindStoreCommit, KindEngineExec} {
			sp := tc.Start(k)
			if k == KindStoreService || k == KindStoreCommit {
				sp.AddStoreHops(1)
			}
			clk.Sleep(3 * time.Millisecond)
			sp.End()
		}
		tc.Finish("")

		var got []Kind
		for _, ks := range Aggregate(tr.Traces()).Op("stat").P99.Ranked() {
			got = append(got, ks.Kind)
		}
		want := []Kind{KindStoreService, KindStoreCommit, KindEngineExec, KindCoherence}
		if !slices.Equal(got, want) {
			t.Fatalf("ranking = %v, want %v (hops first, then KindOrder)", got, want)
		}
	})
}

// TestTraceResources checks per-trace ledger summation.
func TestTraceResources(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("mv", "/a", "c1")
		a := tc.Start(KindStoreRTT)
		a.AddRes(Resources{StoreHops: 3, LockWaitNS: 500, INVTargets: 1, WireBytes: 128})
		a.End()
		b := tc.Start(KindStoreCommit)
		b.AddStoreHops(1)
		b.End()
		tc.Finish("")
		got := tc.Trace().Resources()
		want := Resources{StoreHops: 4, LockWaitNS: 500, INVTargets: 1, WireBytes: 128}
		if got != want {
			t.Fatalf("trace resources = %+v, want %+v", got, want)
		}
		if want.IsZero() || (Resources{}).IsZero() != true {
			t.Fatal("IsZero misbehaves")
		}
	})
}
