package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/telemetry"
)

// TestFlightRecorderOnInvariantViolation forces a chaos invariant
// violation under a fixed seed — the Sabotage hook preloads a ghost
// inode whose parent does not exist, which CheckIntegrity must flag —
// and asserts the flight recorder's dumped window is non-empty,
// chronologically ordered, and framed with the same discriminated
// {"rec": ...} records as the -chaosseed trace JSONL, so the two dumps
// can be replayed side by side.
func TestFlightRecorderOnInvariantViolation(t *testing.T) {
	const seed = 42 // the digest-golden seed: known to fire faults
	const sabotageStep = 25

	cfg := EpisodeConfig{Seed: seed}
	cfg.Metrics = telemetry.NewRegistry()
	fr := telemetry.NewFlightRecorder(0, 0)
	cfg.Flight = fr
	cfg.Sabotage = func(step int, db *ndb.DB) {
		if step != sabotageStep {
			return
		}
		db.Preload([]*namespace.INode{{
			ID: 999_999, ParentID: 888_888, Name: "ghost",
		}})
	}

	res := RunEpisode(cfg)
	if !res.Failed() {
		t.Fatal("sabotaged episode reported no invariant violation")
	}

	// Dump exactly as the bench harness does on a violation: the retained
	// window, which the episode closed with one final registry snapshot,
	// as JSONL.
	var buf bytes.Buffer
	if err := fr.DumpJSONL(&buf); err != nil {
		t.Fatalf("DumpJSONL: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("flight dump is empty")
	}

	events, snaps := 0, 0
	lastTUS := -1.0
	scan := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for scan.Scan() {
		var m map[string]any
		if err := json.Unmarshal(scan.Bytes(), &m); err != nil {
			t.Fatalf("dump line is not JSON: %q: %v", scan.Text(), err)
		}
		switch m["rec"] {
		case "event":
			if snaps > 0 {
				t.Fatal("event record after snapshot records")
			}
			tus, ok := m["t_us"].(float64)
			if !ok {
				t.Fatalf("event record missing t_us: %v", m)
			}
			if tus < lastTUS {
				t.Fatalf("events out of chronological order: %v after %v", tus, lastTUS)
			}
			lastTUS = tus
			events++
		case "snapshot":
			snaps++
		default:
			t.Fatalf("unknown rec discriminator %v — not replayable alongside trace JSONL", m["rec"])
		}
	}
	if events == 0 {
		t.Fatal("flight dump retained no trace events (faults fired but none recorded)")
	}
	if snaps == 0 {
		t.Fatal("flight dump retained no registry snapshots")
	}

	// Replayability: the episode's own -chaosseed JSONL and the flight
	// dump share the {"rec":"event"} frame, so a reader that consumes one
	// consumes the concatenation of both.
	var episodeDump bytes.Buffer
	if err := res.Tracer.WriteJSONL(&episodeDump); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	combined := append(episodeDump.Bytes(), buf.Bytes()...)
	scan = bufio.NewScanner(bytes.NewReader(combined))
	for scan.Scan() {
		var m map[string]any
		if err := json.Unmarshal(scan.Bytes(), &m); err != nil {
			t.Fatalf("combined stream line is not JSON: %q", scan.Text())
		}
		switch m["rec"] {
		case "trace", "event", "snapshot":
		default:
			t.Fatalf("combined stream has unknown rec %v", m["rec"])
		}
	}
}
