package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.StartTrace("stat", "/a", "c") != nil {
		t.Fatal("nil tracer must return a nil context")
	}
	tr.Emit(Event{Type: EventColdStart})
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer traces = %v", got)
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var c *Ctx
	sp := c.Start(KindRPCTCP)
	if sp != nil {
		t.Fatal("nil ctx must return a nil span")
	}
	sp.SetDeployment(1)
	sp.SetShard(2)
	sp.SetInstance("x")
	sp.SetDetail("d")
	sp.AddRes(Resources{StoreHops: 1})
	sp.AddStoreHops(2)
	sp.AddLockWait(time.Millisecond)
	sp.AddINVTargets(3)
	sp.AddWireBytes(4)
	sp.Cancel()
	sp.End()
	if sp.Ctx() != nil {
		t.Fatal("nil span must derive a nil ctx")
	}
	c.Emit(Event{Type: EventRetry})
	c.Finish("")
	if c.Trace() != nil {
		t.Fatal("nil ctx trace must be nil")
	}
}

func TestSpanTreeSelfTimeAggregation(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})

		// stat trace: 10ms total; top-level rpc.tcp span covering 9ms with a
		// 4ms engine.exec child, which has a 1ms engine.cpu child.
		tc := tr.StartTrace("stat", "/a", "c1")
		rpc := tc.Start(KindRPCTCP)
		rpc.SetDeployment(3)
		clk.Sleep(2 * time.Millisecond)
		exec := rpc.Ctx().Start(KindEngineExec)
		exec.SetInstance("namenode3/i0001")
		cpu := exec.Ctx().Start(KindEngineCPU)
		clk.Sleep(time.Millisecond)
		cpu.End()
		clk.Sleep(3 * time.Millisecond)
		exec.End()
		clk.Sleep(3 * time.Millisecond)
		rpc.End()
		clk.Sleep(time.Millisecond)
		tc.Finish("")

		trace := tc.Trace()
		if trace.Duration() != 10*time.Millisecond {
			t.Fatalf("trace duration = %v", trace.Duration())
		}
		if n := len(trace.Spans()); n != 3 {
			t.Fatalf("span count = %d", n)
		}

		b := Aggregate(tr.Traces())
		o := b.Op("stat")
		if o == nil || o.Count != 1 {
			t.Fatalf("op stats missing: %+v", o)
		}
		// Critical path: rpc.tcp 9−4 = 5ms, engine.exec 4−1 = 3ms, engine.cpu
		// 1ms.
		checks := []struct {
			kind Kind
			want time.Duration
		}{
			{KindRPCTCP, 5 * time.Millisecond},
			{KindEngineExec, 3 * time.Millisecond},
			{KindEngineCPU, time.Millisecond},
		}
		for _, c := range checks {
			ks := o.Kind(c.kind)
			if ks == nil || ks.Total != c.want {
				t.Fatalf("%s path time = %+v, want %v", c.kind, ks, c.want)
			}
		}
		// 9ms of 10ms attributed.
		if f := o.AttributedFraction(); f < 0.89 || f > 0.91 {
			t.Fatalf("attributed fraction = %v", f)
		}
		if s := o.MeanShare(KindRPCTCP); s < 0.49 || s > 0.51 {
			t.Fatalf("rpc.tcp share = %v", s)
		}
	})
}

func TestSpanClippedToTraceWindow(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("read", "/f", "c1")
		// A hedged primary keeps running after the trace finishes: its span
		// must only explain the in-window portion.
		late := tc.Start(KindRPCTCP)
		clk.Sleep(2 * time.Millisecond)
		tc.Finish("")
		clk.Sleep(8 * time.Millisecond)
		late.End() // 10ms span inside a 2ms trace

		b := Aggregate(tr.Traces())
		o := b.Op("read")
		ks := o.Kind(KindRPCTCP)
		if ks == nil || ks.Total != 2*time.Millisecond {
			t.Fatalf("clipped path time = %+v, want 2ms", ks)
		}
		if f := o.AttributedFraction(); f < 0.99 || f > 1.01 {
			t.Fatalf("attributed fraction = %v", f)
		}
	})
}

// TestConcurrentTracing: eight recorders on the clock, and a host goroutine
// reading the retained traces and events meanwhile, as a shell or a dump
// does: the tracer's mutex is what orders the reader against them.
func TestConcurrentTracing(t *testing.T) {
	var tr *Tracer
	stop, stopped := make(chan struct{}), make(chan struct{})
	reader := func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = tr.Traces(), tr.Events()
				runtime.Gosched() // on one P the recorders need it back
			}
		}
	}
	simtest.Run(t, func(clk *clock.Sim) {
		tr = New(clk, Config{})
		go reader()
		wg := clock.NewGroup(clk)
		for g := 0; g < 8; g++ {
			wg.Go(func() {
				for i := 0; i < 200; i++ {
					tc := tr.StartTrace("stat", "/a", "c")
					sp := tc.Start(KindRPCTCP)
					child := sp.Ctx().Start(KindEngineExec)
					child.End()
					sp.End()
					tc.Emit(Event{Type: EventRetry, Deployment: g})
					tc.Finish("")
					clk.Sleep(time.Microsecond) // interleave the recorders
				}
			})
		}
		wg.Wait()
	})
	close(stop)
	<-stopped
	if n := len(tr.Traces()); n != 1600 {
		t.Fatalf("traces = %d", n)
	}
	if n := len(tr.Events()); n != 1600 {
		t.Fatalf("events = %d", n)
	}
	b := Aggregate(tr.Traces())
	if o := b.Op("stat"); o == nil || o.Count != 1600 {
		t.Fatalf("aggregated count wrong: %+v", b.Op("stat"))
	}
}

func TestSamplingAndCaps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{MaxTraces: 3, MaxEvents: 2, MaxSpansPerTrace: 1})
		var kept int
		for i := 0; i < 10; i++ {
			if tc := tr.StartTrace("stat", "/", "c"); tc != nil {
				kept++
				// Second span per trace must be dropped by the cap.
				a := tc.Start(KindRPCTCP)
				a.End()
				b := tc.Start(KindRPCHTTP)
				b.End()
				tc.Finish("")
			}
		}
		if kept != 3 {
			t.Fatalf("kept = %d, want 3 (the trace cap)", kept)
		}
		for i := 0; i < 5; i++ {
			tr.Emit(Event{Type: EventColdStart, Deployment: 0})
		}
		if n := len(tr.Events()); n != 2 {
			t.Fatalf("events = %d", n)
		}
		dt, ds, de := tr.Dropped()
		if dt != 7 || ds != 3 || de != 3 {
			t.Fatalf("dropped = %d/%d/%d, want 7/3/3", dt, ds, de)
		}
		for _, trc := range tr.Traces() {
			if len(trc.Spans()) != 1 {
				t.Fatalf("span cap violated: %d spans", len(trc.Spans()))
			}
		}
		tr.Reset()
		if len(tr.Traces()) != 0 || len(tr.Events()) != 0 {
			t.Fatal("reset did not clear")
		}
	})
}

func TestCancelledSpanNotRecorded(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("create", "/x", "c")
		sp := tc.Start(KindColdStart)
		sp.Cancel()
		sp.End()
		tc.Finish("")
		if n := len(tc.Trace().Spans()); n != 0 {
			t.Fatalf("cancelled span recorded: %d", n)
		}
	})
}

// TestOpenSpansCountsUnclosed: a span counts as open from Start until its
// first End, EndAt or Cancel, however many of them follow.
func TestOpenSpansCountsUnclosed(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("create", "/x", "c")
		ended, cancelled, leaked := tc.Start(KindRPCTCP), tc.Start(KindColdStart), tc.Start(KindAdmit)
		if n := tr.OpenSpans(); n != 3 {
			t.Fatalf("open spans = %d, want 3", n)
		}
		ended.End()
		ended.End()
		cancelled.Cancel()
		cancelled.Cancel()
		cancelled.End()
		tc.Finish("")
		if n := tr.OpenSpans(); n != 1 {
			t.Fatalf("open spans = %d, want 1 (the leaked one)", n)
		}
		leaked.EndAt(clk.Now(), 0)
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("open spans = %d, want 0", n)
		}
		var nilTracer *Tracer
		if nilTracer.OpenSpans() != 0 {
			t.Fatal("nil tracer reports open spans")
		}
	})
}

// TestEndAtRecordsComputedWindow: a span for a leg that was computed, not
// lived through, carries the window it is given — here one that lies
// wholly in the future of the clock — keeps its tags and ledger, records
// once, and is a no-op on a nil span.
func TestEndAtRecordsComputedWindow(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		tc := tr.StartTrace("stat", "/x", "c")
		clk.Sleep(time.Millisecond)
		sp := tc.Start(KindStoreService)
		sp.SetShard(2)
		sp.AddStoreHops(3)
		start := clk.Now().Add(5 * time.Millisecond)
		sp.EndAt(start, 7*time.Millisecond)
		sp.End() // already recorded
		var none *ActiveSpan
		none.EndAt(start, time.Second)
		clk.Sleep(12 * time.Millisecond)
		tc.Finish("")

		spans := tc.Trace().Spans()
		if len(spans) != 1 {
			t.Fatalf("span count = %d, want 1", len(spans))
		}
		got := spans[0]
		if !got.Start.Equal(start) || got.Dur != 7*time.Millisecond || got.Shard != 2 || got.Res.StoreHops != 3 {
			t.Fatalf("span = %+v, want [%v +7ms] shard 2 hops 3", got, start)
		}
		if ks := Aggregate(tr.Traces()).Op("stat").Kind(KindStoreService); ks == nil || ks.Total != 7*time.Millisecond {
			t.Fatalf("aggregated ndb.service = %+v, want 7ms", ks)
		}
	})
}

func TestJSONLRoundTrip(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		tr := New(clk, Config{})
		clk.Sleep(1500 * time.Microsecond)
		tc := tr.StartTrace("mv", "/a", "c9")
		sp := tc.Start(KindRPCHTTP)
		sp.SetDeployment(4)
		sp.SetInstance("namenode4/i0002")
		clk.Sleep(8 * time.Millisecond)
		sp.End()
		tc.Finish("")
		tr.Emit(Event{Type: EventColdStart, Deployment: 4, Instance: "namenode4/i0002",
			Dur: 900 * time.Millisecond})

		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("lines = %d", len(lines))
		}
		var trec map[string]any
		if err := json.Unmarshal([]byte(lines[0]), &trec); err != nil {
			t.Fatal(err)
		}
		if trec["rec"] != "trace" || trec["op"] != "mv" || trec["t_us"] != float64(1500) ||
			trec["dur_us"] != float64(8000) {
			t.Fatalf("trace record = %v", trec)
		}
		spans := trec["spans"].([]any)
		s0 := spans[0].(map[string]any)
		if s0["kind"] != "rpc.http" || s0["dep"] != float64(4) || s0["inst"] != "namenode4/i0002" ||
			s0["shard"] != float64(-1) {
			t.Fatalf("span record = %v", s0)
		}
		var erec map[string]any
		if err := json.Unmarshal([]byte(lines[1]), &erec); err != nil {
			t.Fatal(err)
		}
		if erec["rec"] != "event" || erec["type"] != "cold_start" ||
			erec["dur_us"] != float64(900000) || erec["t_us"] != float64(9500) {
			t.Fatalf("event record = %v", erec)
		}
	})
}
