package trace

import (
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
		rtt.AddAllocs(12)
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

		rep := CriticalPath(tr.Traces())
		op := rep.Op("stat")
		if op == nil || op.Traces != 1 {
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
			if ck == nil || ck.PathTotal != d {
				t.Fatalf("%s path = %+v, want %v", k, ck, d)
			}
		}
		if co.Unattributed != time.Millisecond {
			t.Fatalf("unattributed = %v, want 1ms", co.Unattributed)
		}
		var sum time.Duration
		for _, ck := range co.Ranked() {
			sum += ck.PathTotal
		}
		if sum+co.Unattributed != co.E2ETotal {
			t.Fatalf("path sum %v + gap %v != e2e %v", sum, co.Unattributed, co.E2ETotal)
		}
		// Ledger rides along on the report.
		if rtt := co.Kind(KindStoreRTT); rtt.Res.StoreHops != 11 || rtt.Res.Allocs != 12 {
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
// the latest-ending branch is on the path, while resources of parallel
// branches still bill.
func TestCriticalPathParallel(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		tc := tr.StartTrace("stat", "/a", "c1")
		exec := tc.Start(KindEngineExec)
		// Four parallel shard services, same start; the longest (4ms) is the
		// pole. All bill one alloc each.
		var spans []*ActiveSpan
		for i := 0; i < 4; i++ {
			sp := exec.Ctx().Start(KindStoreService)
			sp.AddAllocs(1)
			spans = append(spans, sp)
		}
		clk.Sleep(2 * time.Millisecond)
		for _, sp := range spans[:3] {
			sp.End()
		}
		clk.Sleep(2 * time.Millisecond)
		spans[3].End()
		exec.End()
		tc.Finish("")

		co := CriticalPath(tr.Traces()).Op("stat").P99
		if svc := co.Kind(KindStoreService); svc.PathTotal != 4*time.Millisecond {
			t.Fatalf("service path = %v, want the 4ms pole only", svc.PathTotal)
		}
		if svc := co.Kind(KindStoreService); svc.Res.Allocs != 4 || svc.Spans != 4 {
			t.Fatalf("parallel resources must still bill: %+v", svc)
		}
		if ex := co.Kind(KindEngineExec); ex != nil && ex.PathTotal != 0 {
			t.Fatalf("exec fully covered by children, path = %v", ex.PathTotal)
		}
	})
}

// TestCriticalPathTieBreak pins the deterministic-tie rule: equal path
// times rank the denser ledger (allocations, then store hops) first.
func TestCriticalPathTieBreak(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		tc := tr.StartTrace("stat", "/a", "c1")
		rtt := tc.Start(KindStoreRTT)
		rtt.AddStoreHops(11)
		clk.Sleep(3 * time.Millisecond)
		rtt.End()
		svc := tc.Start(KindStoreService)
		svc.AddAllocs(12)
		clk.Sleep(3 * time.Millisecond)
		svc.End()
		tc.Finish("")

		ranked := CriticalPath(tr.Traces()).Op("stat").P99.Ranked()
		if ranked[0].Kind != KindStoreService {
			t.Fatalf("top-1 = %v, want ndb.service (12 allocs beats 11 hops at equal time)", ranked[0].Kind)
		}
	})
}

// TestTraceResources checks per-trace ledger summation.
func TestTraceResources(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("mv", "/a", "c1")
		a := tc.Start(KindStoreRTT)
		a.AddRes(Resources{Allocs: 2, StoreHops: 3, LockWaitNS: 500, INVTargets: 1, WireBytes: 128})
		a.End()
		b := tc.Start(KindStoreCommit)
		b.AddStoreHops(1)
		b.End()
		tc.Finish("")
		got := tc.Trace().Resources()
		want := Resources{Allocs: 2, StoreHops: 4, LockWaitNS: 500, INVTargets: 1, WireBytes: 128}
		if got != want {
			t.Fatalf("trace resources = %+v, want %+v", got, want)
		}
		if want.IsZero() || (Resources{}).IsZero() != true {
			t.Fatal("IsZero misbehaves")
		}
	})
}
