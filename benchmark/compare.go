package main

import (
	"fmt"
	"io"
	"sort"
)

// failRatioBound is how far failed/attempted may rise, absolutely, before
// it is a regression (it is 0 on every workload today, so a relative
// bound would mean nothing).
const failRatioBound = 0.001

// quartiles returns Python's statistics.quantiles(values, n=4): the
// exclusive method, which the driver uses for its spread check. With one
// value all three quartiles are that value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := i*(n+1) - j*4
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(1), q(2), q(3)
}

// side is one (workload, metric) cell of one result file.
type side struct {
	values         []float64
	q1, median, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.median, s.q3 = quartiles(values)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// verdict applies one metric's bound to two sides: "unresolved" when
// either side's own run-to-run spread is wider than the bound (the runs
// cannot tell), else "worse"/"better" when B's median left A's by more
// than the bound, else "same".
func verdict(a, b side, better string, bound float64, absolute bool) string {
	limit := bound * a.median
	if absolute {
		limit = bound
	} else if a.spread() > bound || b.spread() > bound {
		return "unresolved"
	}
	diff := b.median - a.median
	if better == "higher" {
		diff = -diff
	}
	switch {
	case diff > limit:
		return "worse"
	case diff < -limit:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) found in
// both files and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	cellsA, cellsB := cells(a), cells(b)
	defs := append([]metricDef{{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: failRatioBound}}, endToEnd...)
	fmt.Fprintf(w, "%-14s %-20s %-10s %5s  %14s %14s %14s  %14s %14s %14s  %s\n",
		"workload", "metric", "verdict", "bound", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "runs")
	for _, sp := range specs(1) {
		for _, d := range defs {
			va, vb := cellsA[sp.name+"/"+d.Name], cellsB[sp.name+"/"+d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := newSide(va), newSide(vb)
			v := verdict(sa, sb, d.Better, d.Bound, d.Name == "fail_ratio")
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-20s %-10s %5.3f  %14.4f %14.4f %14.4f  %14.4f %14.4f %14.4f  %d/%d\n",
				sp.name, d.Name, v, d.Bound, sa.q1, sa.median, sa.q3, sb.q1, sb.median, sb.q3, len(va), len(vb))
		}
	}
	return anyWorse, nil
}

// cells groups the end-to-end runs of a file by "workload/metric";
// fail_ratio is derived from every run's attempted and failed counts.
func cells(runs []run) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		out[r.Workload+"/fail_ratio"] = append(out[r.Workload+"/fail_ratio"], ratio(float64(r.Failed), float64(r.Attempted)))
		for name, m := range r.Metrics {
			out[r.Workload+"/"+name] = append(out[r.Workload+"/"+name], m.Value)
		}
	}
	return out
}
