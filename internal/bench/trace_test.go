package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// buildGoldenBreakdown constructs a deterministic span forest: two
// identical "stat" traces (TCP RPC with a store-RTT child) and
// one "create" trace (HTTP RPC then a coherence round).
func buildGoldenBreakdown(clk *clock.Sim) *trace.Breakdown {
	tr := trace.New(clk, trace.Config{})
	for i := 0; i < 2; i++ {
		tc := tr.StartTrace("stat", "/a", "c1")
		sp := tc.Start(trace.KindRPCTCP)
		child := sp.Ctx().Start(trace.KindStoreRTT)
		clk.Sleep(300 * time.Microsecond)
		child.End()
		clk.Sleep(700 * time.Microsecond)
		sp.End()
		tc.Finish("")
	}
	tc := tr.StartTrace("create", "/b", "c1")
	sp := tc.Start(trace.KindRPCHTTP)
	clk.Sleep(5 * time.Millisecond)
	sp.End()
	sp = tc.Start(trace.KindCoherence)
	clk.Sleep(2 * time.Millisecond)
	sp.End()
	tc.Finish("")
	return trace.Aggregate(tr.Traces())
}

// TestBreakdownTableGolden pins the CSV contract of the decomposition
// table: the fixed end-to-end columns followed by one (mean µs, pct) pair
// per span kind in canonical trace.KindOrder. External plotting scripts
// key on these column names and positions.
func TestBreakdownTableGolden(t *testing.T) {
	var tb *Table
	simtest.Run(t, func(clk *clock.Sim) { tb = BreakdownTable(buildGoldenBreakdown(clk)) })
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	// p50/p99 are bucket upper bounds of the log histogram (<5% relative
	// error), hence 1020 for the 1000µs samples and 7185 for 7000µs.
	golden := strings.Join([]string{
		"op,count,mean_us,p50_us,p99_us,attributed_pct,rpc.tcp_mean_us,rpc.tcp_pct,rpc.http_mean_us,rpc.http_pct,coherence.inv_mean_us,coherence.inv_pct,ndb.rtt_mean_us,ndb.rtt_pct",
		"create,1,7000,7185,7185,100.0,0,0.0,5000,71.4,2000,28.6,0,0.0",
		"stat,2,1000,1020,1020,100.0,700,70.0,0,0.0,0,0.0,300,30.0",
		"",
	}, "\n")
	if sb.String() != golden {
		t.Fatalf("breakdown CSV drifted from golden:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestRunTraceExperiment runs the observability experiment end-to-end and
// checks the ISSUE acceptance bar: ≥90% of mean latency attributed to
// named spans for stat/create/mv, and the JSONL dump containing cold
// start, reclamation, and anti-thrashing events.
func TestRunTraceExperiment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Scale: Tiny, Seed: 7, TraceDir: dir}
	tables := RunTrace(opts)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	bd := tables[0]
	col := func(name string) int {
		for i, c := range bd.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from %v", name, bd.Columns)
		return -1
	}
	rows := map[string][]string{}
	for _, row := range bd.Rows {
		rows[row[0]] = row
	}
	for _, op := range []string{"stat", "create", "mv"} {
		row, ok := rows[op]
		if !ok {
			t.Fatalf("op %q missing from breakdown (rows: %v)", op, rows)
		}
		num := func(name string) float64 {
			v, err := strconv.ParseFloat(row[col(name)], 64)
			if err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			return v
		}
		pct, mean := num("attributed_pct"), num("mean_us")
		if pct < 90 {
			t.Errorf("op %q: only %.1f%% of mean latency attributed", op, pct)
		}
		// Self-time accounting must not double-count nested work. Legs
		// that run side by side — the INV targets of one round, the shards
		// of one multi-get — legitimately sum past the wall time, by less
		// than their own total. The bound is in µs, not in percent of the
		// mean: the mean swings with how many of the cohort's few ops
		// absorb a ~900 ms cold start, the overlap does not.
		over := mean * (pct - 100) / 100
		if parallel := num("coherence.target_mean_us") + num("ndb.queue_mean_us") + num("ndb.service_mean_us"); over > parallel {
			t.Errorf("op %q: %.0f µs/op over-attributed (%.1f%%), parallel legs explain only %.0f — spans double-count", op, over, pct, parallel)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dump := string(raw)
	for _, ev := range []string{
		string(trace.EventColdStart), string(trace.EventReclaim),
		string(trace.EventKill), string(trace.EventAntiThrashEnter),
		string(trace.EventAntiThrashExit),
	} {
		if !strings.Contains(dump, `"`+ev+`"`) {
			t.Errorf("JSONL dump missing %s events", ev)
		}
	}
}
