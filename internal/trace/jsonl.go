package trace

import (
	"encoding/json"
	"io"
	"time"

	"lambdafs/internal/clock"
)

// JSONL export. One JSON object per line, discriminated by "rec":
//
//	{"rec":"trace","id":1,"op":"stat","path":"/a","client":"c0001",
//	 "t_us":1234,"dur_us":1810,"err":"",
//	 "spans":[{"id":7,"parent":0,"kind":"rpc.tcp","t_us":1234,"dur_us":1790,
//	           "dep":3,"shard":-1,"inst":"namenode3/i0007","detail":""}]}
//	{"rec":"event","type":"cold_start","t_us":812,"dep":2,
//	 "inst":"namenode2/i0004","client":"","trace":0,"dur_us":900000,"detail":""}
//
// All timestamps are *virtual* microseconds since clock.Epoch; durations
// are virtual microseconds. Records are ordered by start time.

type spanJSON struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Kind   Kind   `json:"kind"`
	TUS    int64  `json:"t_us"`
	DurUS  int64  `json:"dur_us"`
	Dep    int    `json:"dep"`
	Shard  int    `json:"shard"`
	Inst   string `json:"inst,omitempty"`
	Detail string `json:"detail,omitempty"`

	// Resource ledger (omitted when zero).
	StoreHops  uint64 `json:"hops,omitempty"`
	LockWaitNS int64  `json:"lock_wait_ns,omitempty"`
	INVTargets uint64 `json:"inv_targets,omitempty"`
	WireBytes  uint64 `json:"wire_bytes,omitempty"`
}

type traceJSON struct {
	Rec    string     `json:"rec"`
	ID     uint64     `json:"id"`
	Op     string     `json:"op"`
	Path   string     `json:"path"`
	Client string     `json:"client"`
	TUS    int64      `json:"t_us"`
	DurUS  int64      `json:"dur_us"`
	Err    string     `json:"err,omitempty"`
	Spans  []spanJSON `json:"spans"`
}

type eventJSON struct {
	Rec    string    `json:"rec"`
	Type   EventType `json:"type"`
	TUS    int64     `json:"t_us"`
	Dep    int       `json:"dep"`
	Inst   string    `json:"inst,omitempty"`
	Client string    `json:"client,omitempty"`
	Trace  uint64    `json:"trace,omitempty"`
	DurUS  int64     `json:"dur_us,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

func virtUS(t time.Time) int64 { return t.Sub(clock.Epoch).Microseconds() }

// WriteTraceJSONL writes one trace as a JSONL record.
func WriteTraceJSONL(w io.Writer, t *Trace) error {
	rec := traceJSON{
		Rec: "trace", ID: t.ID, Op: t.Op, Path: t.Path, Client: t.Client,
		TUS: virtUS(t.Start), DurUS: t.Duration().Microseconds(), Err: t.Err(),
	}
	for _, s := range t.Spans() {
		rec.Spans = append(rec.Spans, spanJSON{
			ID: s.ID, Parent: s.Parent, Kind: s.Kind,
			TUS: virtUS(s.Start), DurUS: s.Dur.Microseconds(),
			Dep: s.Deployment, Shard: s.Shard, Inst: s.Instance, Detail: s.Detail,
			StoreHops: s.Res.StoreHops, LockWaitNS: s.Res.LockWaitNS,
			INVTargets: s.Res.INVTargets, WireBytes: s.Res.WireBytes,
		})
	}
	return writeLine(w, rec)
}

// WriteEventJSONL writes one event as a JSONL record.
func WriteEventJSONL(w io.Writer, ev Event) error {
	return writeLine(w, eventJSON{
		Rec: "event", Type: ev.Type, TUS: virtUS(ev.Time), Dep: ev.Deployment,
		Inst: ev.Instance, Client: ev.Client, Trace: ev.TraceID,
		DurUS: ev.Dur.Microseconds(), Detail: ev.Detail,
	})
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSONL dumps the tracer's retained traces and events: traces first
// (in start order, as collected), then events (in emission order).
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	for _, t := range tr.Traces() {
		if err := WriteTraceJSONL(w, t); err != nil {
			return err
		}
	}
	for _, ev := range tr.Events() {
		if err := WriteEventJSONL(w, ev); err != nil {
			return err
		}
	}
	return nil
}
