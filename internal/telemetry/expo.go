package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// fmtFloat renders values the way Prometheus text exposition expects:
// shortest representation that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabelValue escapes a label value per the Prometheus text format
// spec (version 0.0.4): backslash, double quote, and line feed are the
// ONLY escaped characters (`\\`, `\"`, `\n`); everything else — tabs,
// non-ASCII — passes through raw. This deliberately differs from Go's
// %q (used by labelString for registry identity keys), which escapes far
// more and would not round-trip through a Prometheus parser.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// unescapeLabelValue inverts escapeLabelValue (used by the round-trip
// test and any in-repo consumer of the exposition output).
func unescapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case '"':
				b.WriteByte('"')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// promLabelString renders a label set for text exposition:
// {k1="v1",k2="v2"} with spec-correct value escaping, or "" when empty.
func promLabelString(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Counters expose a single _total-named sample,
// gauges a single sample, histograms a summary (quantile samples plus
// _sum and _count). Output ordering is deterministic: metrics sorted by
// (name, label string), one # TYPE header per metric name.
func WritePrometheus(w io.Writer, reg *Registry) error {
	ms := reg.Gather()
	lastName := ""
	for _, m := range ms {
		if m.Name != lastName {
			typ := "counter"
			switch m.Kind {
			case KindGauge:
				typ = "gauge"
			case KindHistogram:
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, typ); err != nil {
				return err
			}
			lastName = m.Name
		}
		switch m.Kind {
		case KindCounter, KindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, promLabelString(m.Labels), fmtFloat(m.Value)); err != nil {
				return err
			}
		case KindHistogram:
			ls := promLabelString(m.Labels)
			for _, sq := range summaryQuantiles {
				ql := promLabelString(append(append([]Label(nil), m.Labels...), L("quantile", sq.label)))
				if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, ql, fmtFloat(m.Hist.Quantile(sq.q).Seconds())); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, ls, fmtFloat(m.Hist.Sum.Seconds())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, ls, m.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// metricJSON is the JSON exposition form of one instrument.
type metricJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	Q50    float64           `json:"q50,omitempty"`
	Q95    float64           `json:"q95,omitempty"`
	Q99    float64           `json:"q99,omitempty"`
}

// WriteJSON renders the registry as a JSON array, same ordering as
// WritePrometheus.
func WriteJSON(w io.Writer, reg *Registry) error {
	ms := reg.Gather()
	out := make([]metricJSON, 0, len(ms))
	for _, m := range ms {
		j := metricJSON{Name: m.Name, Kind: m.Kind.String()}
		if len(m.Labels) > 0 {
			j.Labels = make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				j.Labels[l.Key] = l.Value
			}
		}
		if m.Kind == KindHistogram {
			j.Count, j.Sum = m.Hist.Count, m.Hist.Sum.Seconds()
			j.Q50 = m.Hist.Quantile(0.50).Seconds()
			j.Q95 = m.Hist.Quantile(0.95).Seconds()
			j.Q99 = m.Hist.Quantile(0.99).Seconds()
		} else {
			j.Value = m.Value
		}
		out = append(out, j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// snapshotJSON is the on-disk form of one scraped snapshot.
type snapshotJSON struct {
	TUS    int64              `json:"t_us"`
	Values map[string]float64 `json:"values"`
}

// WriteSnapshotsJSON renders a scraped series as a JSON array of
// {t_us, values} objects — the per-experiment artifact written by
// lambdafs-bench -metrics.
func WriteSnapshotsJSON(w io.Writer, snaps []Snapshot) error {
	out := make([]snapshotJSON, len(snaps))
	for i, s := range snaps {
		out[i] = snapshotJSON{TUS: s.VirtualUS(), Values: s.Values}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns an http.Handler exposing the registry live:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON exposition
//
// This is a host-side observation surface (e.g. lambdafs-shell -http):
// the HTTP server itself lives in wall-clock land even when the cluster
// under observation runs on virtual time.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Wall clock is deliberate: the header stamps when the scrape was
		// served to an external observer, which has no virtual-time analogue.
		w.Header().Set("X-Generated-At", time.Now().UTC().Format(time.RFC3339)) //vet:allow virtualtime host-side HTTP exposition timestamps are wall-clock by nature
		_ = WritePrometheus(w, reg)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, reg)
	})
	return mux
}
