package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

func eventAt(t time.Time) trace.Event {
	return trace.Event{Time: t, Type: trace.EventType("test"), Deployment: -1}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	base := clock.Epoch
	for i := 0; i < 10; i++ {
		fr.RecordEvent(eventAt(base.Add(time.Duration(i) * time.Second)))
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The freshest window survives: seconds 6..9, in order.
	for i, ev := range evs {
		want := base.Add(time.Duration(6+i) * time.Second)
		if !ev.Time.Equal(want) {
			t.Fatalf("event[%d].Time = %v, want %v", i, ev.Time, want)
		}
	}
	for i := 0; i < 5; i++ {
		fr.RecordSnapshot(Snapshot{Time: base.Add(time.Duration(i) * time.Minute)})
	}
	snaps := fr.Snapshots()
	if len(snaps) != 2 || !snaps[0].Time.Equal(base.Add(3*time.Minute)) {
		t.Fatalf("snapshot window wrong: %v", snaps)
	}
	ne, ns := fr.Len()
	if ne != 4 || ns != 2 {
		t.Fatalf("Len = %d, %d", ne, ns)
	}
}

func TestFlightRecorderDumpJSONL(t *testing.T) {
	fr := NewFlightRecorder(8, 8)
	base := clock.Epoch
	for i := 0; i < 3; i++ {
		ev := eventAt(base.Add(time.Duration(i) * time.Second))
		ev.Detail = "boom"
		fr.RecordEvent(ev)
	}
	fr.RecordSnapshot(Snapshot{
		Time:   base.Add(5 * time.Second),
		Values: map[string]float64{"lambdafs_test_total": 3},
	})
	var sb strings.Builder
	if err := fr.DumpJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("dump line is not JSON: %q: %v", sc.Text(), err)
		}
		recs = append(recs, m)
	}
	if len(recs) != 4 {
		t.Fatalf("dumped %d records, want 4", len(recs))
	}
	var lastTUS float64 = -1
	snapSeen := false
	for _, m := range recs {
		switch m["rec"] {
		case "event":
			if snapSeen {
				t.Fatal("events must precede snapshots in the dump")
			}
			tus := m["t_us"].(float64)
			if tus < lastTUS {
				t.Fatal("events out of chronological order")
			}
			lastTUS = tus
		case "snapshot":
			snapSeen = true
			vals := m["values"].(map[string]any)
			if vals["lambdafs_test_total"] != 3.0 {
				t.Fatalf("snapshot values lost: %v", m)
			}
		default:
			t.Fatalf("unknown rec discriminator: %v", m["rec"])
		}
	}
	if !snapSeen {
		t.Fatal("no snapshot record in dump")
	}
}

// TestTracerSinkFeedsRecorder wires a real tracer into the recorder the
// way the cluster does and checks events flow through even past the
// tracer's own retention cap.
func TestTracerSinkFeedsRecorder(t *testing.T) {
	clk := simtest.New(t)
	tr := trace.New(clk, trace.Config{MaxEvents: 2})
	fr := NewFlightRecorder(16, 4)
	tr.SetEventSink(fr.RecordEvent)
	for i := 0; i < 6; i++ {
		tr.Emit(trace.Event{Type: trace.EventType("test"), Deployment: -1})
	}
	if len(tr.Events()) != 2 {
		t.Fatalf("tracer retained %d events, want cap 2", len(tr.Events()))
	}
	if evs := fr.Events(); len(evs) != 6 {
		t.Fatalf("recorder saw %d events, want all 6 (sink bypasses cap)", len(evs))
	}
}

// TestFlightRecorderWraparoundBoundary pins the ring's behavior at the
// exact capacity boundary: filling to capacity retains everything in
// insertion order, and one more event evicts exactly the oldest.
func TestFlightRecorderWraparoundBoundary(t *testing.T) {
	const cap = 4
	fr := NewFlightRecorder(cap, 1)
	base := clock.Epoch
	for i := 0; i < cap; i++ {
		fr.RecordEvent(eventAt(base.Add(time.Duration(i) * time.Second)))
	}
	evs := fr.Events()
	if len(evs) != cap {
		t.Fatalf("at capacity: retained %d events, want %d", len(evs), cap)
	}
	for i, ev := range evs {
		if want := base.Add(time.Duration(i) * time.Second); !ev.Time.Equal(want) {
			t.Fatalf("at capacity: event[%d].Time = %v, want %v (oldest first)", i, ev.Time, want)
		}
	}

	// Capacity+1: the head wraps, the oldest event (t+0s) is gone, and the
	// dump order is still oldest-first starting at t+1s.
	fr.RecordEvent(eventAt(base.Add(cap * time.Second)))
	evs = fr.Events()
	if len(evs) != cap {
		t.Fatalf("past capacity: retained %d events, want %d", len(evs), cap)
	}
	for i, ev := range evs {
		if want := base.Add(time.Duration(i+1) * time.Second); !ev.Time.Equal(want) {
			t.Fatalf("past capacity: event[%d].Time = %v, want %v (oldest first)", i, ev.Time, want)
		}
	}
	if ne, _ := fr.Len(); ne != cap {
		t.Fatalf("Len = %d, want %d", ne, cap)
	}
}
