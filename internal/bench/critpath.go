package bench

import (
	"fmt"
	"time"

	"lambdafs/internal/trace"
)

// critPathTopN bounds the contributors printed per (op, cohort). The full
// ranking is the cohort's; the table shows the head plus the untraced
// remainder so nothing is silently dropped from the accounting.
const critPathTopN = 5

// CriticalPathTable renders the p50 and p99 cohorts of a
// trace.Breakdown: for each op, the top span kinds by critical-path time
// with their resource ledgers, all as per-trace means. path_pct values
// within one cohort sum (with the untraced row) to 100 by construction —
// the decomposition attributes every instant of the end-to-end window
// exactly once.
func CriticalPathTable(b *trace.Breakdown) *Table {
	t := &Table{
		ID:    "trace-critpath",
		Title: "Critical-path contributors to p50/p99 with resource ledgers (per-trace means)",
		Columns: []string{"op", "cohort", "rank", "kind", "path_us", "path_pct",
			"spans", "hops", "lockwait_us", "inv", "wire_b"},
	}
	for _, op := range b.OpNames() {
		o := b.Op(op)
		for _, co := range []*trace.Cohort{o.P50, o.P99} {
			if co.Count == 0 {
				continue
			}
			n := float64(co.Count)
			e2e := float64(co.E2ETotal)
			pct := func(d time.Duration) string {
				if e2e <= 0 {
					return "0.0"
				}
				return fmt.Sprintf("%.1f", 100*float64(d)/e2e)
			}
			for i, ks := range co.Ranked() {
				if i >= critPathTopN {
					break
				}
				t.Rows = append(t.Rows, []string{
					op, co.Name, fmt.Sprintf("%d", i+1), string(ks.Kind),
					fmt.Sprintf("%d", time.Duration(float64(ks.Total)/n).Microseconds()),
					pct(ks.Total),
					fmt.Sprintf("%.1f", float64(ks.Spans)/n),
					fmt.Sprintf("%.1f", float64(ks.Res.StoreHops)/n),
					fmt.Sprintf("%.1f", float64(ks.Res.LockWaitNS)/1e3/n),
					fmt.Sprintf("%.1f", float64(ks.Res.INVTargets)/n),
					fmt.Sprintf("%.0f", float64(ks.Res.WireBytes)/n),
				})
			}
			t.Rows = append(t.Rows, []string{
				op, co.Name, "", "(untraced)",
				fmt.Sprintf("%d", time.Duration(float64(co.Untraced())/n).Microseconds()),
				pct(co.Untraced()),
				"", "", "", "", "",
			})
		}
	}
	t.Notes = append(t.Notes,
		"path_us is the mean time the client actually waited on the kind (critical path); per cohort the path_pct column sums to 100 with the untraced row",
		"resource columns (hops, lockwait_us, inv, wire_b) sum over ALL spans of the kind, on or off the path — parallel branches still bill",
		"ties in path_us rank the kind with more store hops first, then canonical kind order")
	return t
}
