package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the plumbing the committed BENCH_<name>.json regression
// gates share — `lambdafs-bench -baseline NAME` and `-check FILE`. What a
// gate measures and how it compares live with its experiment (hotpath.go,
// restart.go, scale.go).

// baselineHeader opens every baseline document: the format, and the mode
// and seed the file was measured at (a check re-measures at the same).
type baselineHeader struct {
	Schema string `json:"schema"`
	Mode   string `json:"mode"`
	Seed   int64  `json:"seed"`
}

type baselineKind struct {
	name, schema string
	measure      func(Options) any
	check        func(path string, opts Options) error
}

var baselineKinds = []baselineKind{
	{"hotpath", HotpathSchema, func(o Options) any { return HotpathMeasure(o) }, CheckHotpathBaseline},
	{"restart", RestartSchema, func(o Options) any { return RestartMeasure(o) }, CheckRestartBaseline},
	{"scale", ScaleSchema, func(o Options) any { b, _ := ScaleMeasure(o); return b }, CheckScaleBaseline},
}

const baselineNames = "hotpath|restart|scale"

// WriteBaseline measures the named baseline and writes BENCH_<name>.json
// into the current directory, returning the file name.
func WriteBaseline(name string, opts Options) (string, error) {
	for _, k := range baselineKinds {
		if k.name == name {
			path := "BENCH_" + name + ".json"
			return path, writeBaselineFile(path, k.measure(opts))
		}
	}
	return "", fmt.Errorf("unknown baseline %q (want %s)", name, baselineNames)
}

func writeBaselineFile(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckBaseline routes the baseline file at path to its gate by the
// file's schema field and runs it, returning the gate's name.
func CheckBaseline(path string, opts Options) (string, error) {
	k, err := baselineKindOf(path)
	if err != nil {
		return "", err
	}
	return k.name, k.check(path, opts)
}

func baselineKindOf(path string) (*baselineKind, error) {
	var hdr baselineHeader
	if err := readBaseline(path, &hdr); err != nil {
		return nil, err
	}
	known := make([]string, len(baselineKinds))
	for i := range baselineKinds {
		k := &baselineKinds[i]
		if k.schema == hdr.Schema {
			return k, nil
		}
		known[i] = k.schema
	}
	return nil, fmt.Errorf("baseline %s has schema %q, want one of %s (regenerate with -baseline %s)",
		path, hdr.Schema, strings.Join(known, ", "), baselineNames)
}

// readBaseline parses the baseline file at path into each of docs.
func readBaseline(path string, docs ...any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	for _, doc := range docs {
		if err := json.Unmarshal(data, doc); err != nil {
			return fmt.Errorf("parse baseline %s: %w", path, err)
		}
	}
	return nil
}

// loadBaseline parses the committed baseline at path into doc, rejects
// any schema but the named gate's, and returns opts set to the mode and
// seed the file was measured at.
func loadBaseline(path, name, schema string, doc any, opts Options) (Options, error) {
	var hdr baselineHeader
	if err := readBaseline(path, &hdr, doc); err != nil {
		return opts, err
	}
	if hdr.Schema != schema {
		return opts, fmt.Errorf("baseline schema %q, want %q (regenerate with -baseline %s)",
			hdr.Schema, schema, name)
	}
	for opts.Scale = Full; opts.Scale.String() != hdr.Mode; opts.Scale++ {
		if opts.Scale == Tiny {
			return opts, fmt.Errorf("baseline mode %q, want full, quick or tiny", hdr.Mode)
		}
	}
	opts.Seed = hdr.Seed
	return opts, nil
}

// baselineDiff collects where a re-measured baseline differs from the
// committed file. exact is how every gate compares a virtual column: the
// substrate is bit-exact, so the two are equal or the gate fails — an
// intentional behaviour change regenerates the file with -baseline.
type baselineDiff struct{ fails []string }

func (d *baselineDiff) exact(row, col string, got, want any) {
	if got != want {
		d.fails = append(d.fails, fmt.Sprintf("%s: %s %v, baseline %v", row, col, got, want))
	}
}

// regressionError folds a gate's failed comparisons into one error (nil
// when there are none).
func regressionError(what, path string, fails []string) error {
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("%s vs %s:\n  %s", what, path, strings.Join(fails, "\n  "))
}
