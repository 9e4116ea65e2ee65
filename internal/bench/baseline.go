package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// This file is the one regression gate behind every committed
// BENCH_<name>.json: `lambdafs-bench -baseline NAME` writes the file and
// `-check FILE` routes it by its schema, re-measures at its mode and
// seed, and compares the two documents leaf by leaf. The substrate is
// bit-exact, so every leaf must match and a row missing from either side
// fails; an intentional behaviour change regenerates the file.

// baselineHeader opens every baseline document: the format, and the mode
// and seed the file was measured at.
type baselineHeader struct {
	Schema string `json:"schema"`
	Mode   string `json:"mode"`
	Seed   int64  `json:"seed"`
}

// leafRule replaces exact equality for a leaf: it returns why the fresh
// value got fails against the committed want, or "" when it passes.
type leafRule func(got, want any) string

// baselineKind is one gate: rules holds, by leaf key, the leaves not
// compared exactly.
type baselineKind struct {
	name, schema string
	measure      func(Options) any
	rules        map[string]leafRule
}

var baselineKinds = []baselineKind{
	{"hotpath", HotpathSchema, func(o Options) any { return HotpathMeasure(o) },
		map[string]leafRule{"allocs_per_op": allocsMargin}},
	{"restart", RestartSchema, func(o Options) any { return RestartMeasure(o) },
		map[string]leafRule{"digest_match": recoveredExact}},
	{"scale", ScaleSchema, func(o Options) any { b, _ := ScaleMeasure(o); return b }, nil},
}

// WriteBaseline measures the named baseline and writes BENCH_<name>.json
// into the current directory, returning the file name.
func WriteBaseline(name string, opts Options) (string, error) {
	var names []string
	for _, k := range baselineKinds {
		if k.name == name {
			path := "BENCH_" + name + ".json"
			data, err := json.MarshalIndent(k.measure(opts), "", "  ")
			if err != nil {
				return "", err
			}
			return path, os.WriteFile(path, append(data, '\n'), 0o644)
		}
		names = append(names, k.name)
	}
	return "", fmt.Errorf("unknown baseline %q (want %s)", name, strings.Join(names, "|"))
}

// CheckBaseline checks the baseline file at path and returns its gate's
// name.
func CheckBaseline(path string, opts Options) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("read baseline: %w", err)
	}
	k, opts, err := baselineKindOf(path, data, opts)
	if err != nil {
		return "", err
	}
	return k.name, k.compare(path, data, k.measure(opts))
}

// baselineKindOf routes a baseline file to its kind by the file's schema
// and returns opts set to the mode and seed the file was measured at.
func baselineKindOf(path string, data []byte, opts Options) (*baselineKind, Options, error) {
	var hdr baselineHeader
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, opts, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	var k *baselineKind
	known := make([]string, len(baselineKinds))
	for i := range baselineKinds {
		if baselineKinds[i].schema == hdr.Schema {
			k = &baselineKinds[i]
		}
		known[i] = fmt.Sprintf("%s (-baseline %s)", baselineKinds[i].schema, baselineKinds[i].name)
	}
	if k == nil {
		return nil, opts, fmt.Errorf("baseline %s has schema %q; regenerate it as one of %s",
			path, hdr.Schema, strings.Join(known, ", "))
	}
	for opts.Scale = Full; opts.Scale.String() != hdr.Mode; opts.Scale++ {
		if opts.Scale == Tiny {
			return nil, opts, fmt.Errorf("baseline %s has mode %q, want full, quick or tiny (regenerate with -baseline %s)",
				path, hdr.Mode, k.name)
		}
	}
	opts.Seed = hdr.Seed
	return k, opts, nil
}

// compare fails on every leaf where the fresh document differs from the
// committed file's, naming the leaf by its path.
func (k *baselineKind) compare(path string, committed []byte, fresh any) error {
	data, err := json.Marshal(fresh)
	if err != nil {
		return err
	}
	var got, want any
	if err := decodeJSON(data, &got); err != nil {
		return err
	}
	if err := decodeJSON(committed, &want); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	var fails []string
	k.diff("", got, want, &fails)
	if len(fails) == 0 {
		return nil
	}
	sort.Strings(fails)
	return fmt.Errorf("%s baseline regression vs %s (regenerate with -baseline %s if intended):\n  %s",
		k.name, path, k.name, strings.Join(fails, "\n  "))
}

// decodeJSON keeps numbers as written, so two documents compare exactly.
func decodeJSON(data []byte, v *any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// diff appends a failure for every leaf under path where got (measured)
// differs from want (committed), and for every member either side lacks.
func (k *baselineKind) diff(path string, got, want any, fails *[]string) {
	gm, gok := members(got)
	wm, wok := members(want)
	if !gok || !wok {
		rule := k.rules[leafName(path)]
		if rule == nil {
			rule = exactLeaf
		}
		if why := rule(got, want); why != "" {
			*fails = append(*fails, path[1:]+": "+why)
		}
		return
	}
	for key, g := range gm {
		if w, ok := wm[key]; ok {
			k.diff(path+key, g, w, fails)
		} else {
			*fails = append(*fails, (path + key)[1:]+": measured, not in the baseline")
		}
	}
	for key := range wm {
		if _, ok := gm[key]; !ok {
			*fails = append(*fails, (path + key)[1:]+": in the baseline, not measured")
		}
	}
}

// members returns a JSON object's or array's members keyed by their path
// suffix (".key" or "[i]"); ok is false for a leaf.
func members(v any) (m map[string]any, ok bool) {
	m = map[string]any{}
	switch c := v.(type) {
	case map[string]any:
		for key, x := range c {
			m["."+key] = x
		}
	case []any:
		for i, x := range c {
			m[fmt.Sprintf("[%d]", i)] = x
		}
	default:
		return nil, false
	}
	return m, true
}

// leafName is the last key of a leaf's path, which picks its rule.
func leafName(path string) string { return path[strings.LastIndexAny(path, ".]")+1:] }

func exactLeaf(got, want any) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%v, baseline %v", got, want)
}
