package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// buildGoldenBreakdown constructs a deterministic span forest: two
// identical "stat" traces (TCP RPC with a store-RTT child), one "create"
// trace (HTTP RPC then a coherence round) and one "delete" trace (an
// untraced gap, then a commit whose two shard spans overlap).
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
	tc = tr.StartTrace("delete", "/c", "c1")
	clk.Sleep(250 * time.Microsecond)
	commit := tc.Start(trace.KindStoreCommit)
	a := commit.Ctx().Start(trace.KindStoreService)
	clk.Sleep(200 * time.Microsecond)
	b := commit.Ctx().Start(trace.KindStoreService)
	clk.Sleep(400 * time.Microsecond)
	a.End()
	clk.Sleep(400 * time.Microsecond)
	b.End()
	commit.End()
	tc.Finish("")
	return trace.Aggregate(tr.Traces())
}

// checkDecomposition holds every op of b to the identity of the one
// decomposition: its kind totals plus its untraced time are its
// end-to-end time, to the nanosecond.
func checkDecomposition(t *testing.T, b *trace.Breakdown) {
	t.Helper()
	for _, name := range b.OpNames() {
		op := b.Op(name)
		var sum time.Duration
		for _, ks := range op.Kinds() {
			sum += ks.Total
		}
		if sum+op.Untraced() != op.E2ETotal {
			t.Errorf("op %q: kinds %v + untraced %v != end-to-end %v", name, sum, op.Untraced(), op.E2ETotal)
		}
	}
}

// TestBreakdownTableGolden pins the CSV contract of the decomposition
// table: the fixed end-to-end columns followed by one (mean µs, pct) pair
// per span kind in canonical trace.KindOrder. External plotting scripts
// key on these column names and positions. The delete row pins the
// critical path: the overlapping shard spans count once (800 µs, not
// 600 + 800), and attributed_pct falls short of 100 by the 250 µs gap.
func TestBreakdownTableGolden(t *testing.T) {
	var bd *trace.Breakdown
	simtest.Run(t, func(clk *clock.Sim) { bd = buildGoldenBreakdown(clk) })
	checkDecomposition(t, bd)
	tb := BreakdownTable(bd)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	// p50/p99 are bucket upper bounds of the log histogram (<5% relative
	// error), hence 1020 for the 1000µs samples, 1302 for 1250µs and 7185
	// for 7000µs.
	golden := strings.Join([]string{
		"op,count,mean_us,p50_us,p99_us,attributed_pct,rpc.tcp_mean_us,rpc.tcp_pct,rpc.http_mean_us,rpc.http_pct,coherence.inv_mean_us,coherence.inv_pct,ndb.rtt_mean_us,ndb.rtt_pct,ndb.service_mean_us,ndb.service_pct,ndb.commit_mean_us,ndb.commit_pct",
		"create,1,7000,7185,7185,100.0,0,0.0,5000,71.4,2000,28.6,0,0.0,0,0.0,0,0.0",
		"delete,1,1250,1302,1302,80.0,0,0.0,0,0.0,0,0.0,0,0.0,800,64.0,200,16.0",
		"stat,2,1000,1020,1020,100.0,700,70.0,0,0.0,0,0.0,300,30.0,0,0.0,0,0.0",
		"",
	}, "\n")
	if sb.String() != golden {
		t.Fatalf("breakdown CSV drifted from golden:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestRunTraceExperiment runs the observability experiment end-to-end and
// checks its acceptance bar: ≥90% of mean latency attributed to named
// spans for stat/create/mv, every op's decomposition summing exactly to
// its end-to-end time, and the JSONL dump containing cold start,
// reclamation, and anti-thrashing events.
func TestRunTraceExperiment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Scale: Tiny, Seed: 7, ArtifactDir: dir}
	bd, tables := runTrace(opts)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	checkDecomposition(t, bd)
	for _, op := range []string{"stat", "create", "mv"} {
		o := bd.Op(op)
		if o == nil {
			t.Fatalf("op %q missing from breakdown (ops: %v)", op, bd.OpNames())
		}
		if pct := 100 * o.AttributedFraction(); pct < 90 {
			t.Errorf("op %q: only %.1f%% of mean latency attributed", op, pct)
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
