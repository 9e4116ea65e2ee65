package telemetry

import (
	"encoding/json"
	"io"
	"sync"

	"lambdafs/internal/trace"
)

// flightEvents and flightSnaps bound the flight recorder's memory: enough
// recent history to diagnose a failure (64 snapshots are a minute of
// lambdafs-shell's scrapes), small enough to keep resident at all times.
const (
	flightEvents = 512
	flightSnaps  = 64
)

// FlightRecorder keeps the most recent trace events and registry
// snapshots in bounded ring buffers, for dumping as JSONL when something
// goes wrong: a chaos invariant fails, an episode digest mismatches, or
// the shell receives an interrupt. Unlike the Tracer (which caps by
// dropping new events once full), the recorder always retains the
// freshest window — exactly what a post-mortem needs.
//
// Wire it up via Tracer.SetEventSink(fr.RecordEvent) and
// Scraper.OnSnapshot(fr.RecordSnapshot). All methods are nil-safe.
type FlightRecorder struct {
	mu      sync.Mutex
	events  []trace.Event // ring; events[evHead] is the oldest retained
	evHead  int
	evCount int
	snaps   []Snapshot
	snHead  int
	snCount int
}

// NewFlightRecorder builds a recorder retaining up to flightEvents trace
// events and flightSnaps snapshots.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		events: make([]trace.Event, flightEvents),
		snaps:  make([]Snapshot, flightSnaps),
	}
}

// RecordEvent appends a trace event, evicting the oldest when full.
func (f *FlightRecorder) RecordEvent(ev trace.Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.evCount < len(f.events) {
		f.events[(f.evHead+f.evCount)%len(f.events)] = ev
		f.evCount++
		return
	}
	f.events[f.evHead] = ev
	f.evHead = (f.evHead + 1) % len(f.events)
}

// RecordSnapshot appends a registry snapshot, evicting the oldest when
// full.
func (f *FlightRecorder) RecordSnapshot(s Snapshot) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snCount < len(f.snaps) {
		f.snaps[(f.snHead+f.snCount)%len(f.snaps)] = s
		f.snCount++
		return
	}
	f.snaps[f.snHead] = s
	f.snHead = (f.snHead + 1) % len(f.snaps)
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []trace.Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]trace.Event, 0, f.evCount)
	for i := 0; i < f.evCount; i++ {
		out = append(out, f.events[(f.evHead+i)%len(f.events)])
	}
	return out
}

// Snapshots returns the retained snapshots, oldest first.
func (f *FlightRecorder) Snapshots() []Snapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Snapshot, 0, f.snCount)
	for i := 0; i < f.snCount; i++ {
		out = append(out, f.snaps[(f.snHead+i)%len(f.snaps)])
	}
	return out
}

// Len reports how many events and snapshots are currently retained.
func (f *FlightRecorder) Len() (events, snapshots int) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evCount, f.snCount
}

// flightSnapJSON mirrors the trace JSONL discriminated-record
// convention: {"rec":"snapshot", "t_us":..., "values":{...}}.
type flightSnapJSON struct {
	Rec    string             `json:"rec"`
	TUS    int64              `json:"t_us"`
	Values map[string]float64 `json:"values"`
}

// DumpJSONL writes the retained window as JSONL: trace events first
// (oldest to newest, the same {"rec":"event"} records the tracer
// writes), then snapshots as {"rec":"snapshot"} records. The stream is
// therefore replayable alongside a -chaosseed episode JSONL.
func (f *FlightRecorder) DumpJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	for _, ev := range f.Events() {
		if err := trace.WriteEventJSONL(w, ev); err != nil {
			return err
		}
	}
	for _, s := range f.Snapshots() {
		b, err := json.Marshal(flightSnapJSON{Rec: "snapshot", TUS: s.VirtualUS(), Values: s.Values})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
