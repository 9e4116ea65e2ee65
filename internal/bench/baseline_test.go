package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBaselineGate drives the one comparer over every gate kind. Each
// committed BENCH_<name>.json routes to its own kind. On a tiny
// measurement, the honest file passes a full -check; perturbing any leaf
// of it, or deleting or adding any row, column or array element, fails
// and names exactly that path; a stale schema and an unknown mode are
// refused with the kind's -baseline hint. Hotpath's allocs_per_op passes
// inside its margin and fails outside it, and a diverged restart
// recovery fails even against a file that records the divergence.
func TestBaselineGate(t *testing.T) {
	for i := range baselineKinds {
		k := &baselineKinds[i]
		t.Run(k.name, func(t *testing.T) {
			t.Run("committed file routes", func(t *testing.T) {
				path := filepath.Join("..", "..", "BENCH_"+k.name+".json")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got, opts, err := baselineKindOf(path, data, Options{})
				if err != nil || got != k || opts.Scale != Quick || opts.Seed != 1 {
					t.Fatalf("routed to kind %p (want %p) at mode %s seed %d: %v", got, k, opts.Scale, opts.Seed, err)
				}
			})

			fresh := k.measure(Options{Scale: Tiny, Seed: 1, Out: io.Discard})
			path := filepath.Join(t.TempDir(), "BENCH_"+k.name+".json")
			honest, err := json.Marshal(fresh)
			if err == nil {
				err = os.WriteFile(path, honest, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			_, nodes := jsonNodes(t, honest)
			// failsAt checks that a committed document fails against the
			// fresh measurement at path p and nowhere else.
			failsAt := func(t *testing.T, committed []byte, p string) {
				t.Helper()
				var fails []string
				if err := k.compare(path, committed, fresh); err != nil {
					fails = strings.Split(err.Error(), "\n  ")[1:]
				}
				if len(fails) != 1 || !strings.HasPrefix(fails[0], p+": ") {
					t.Errorf("%s edited: gate failed at %q", p, fails)
				}
			}

			t.Run("honest file passes", func(t *testing.T) {
				if _, err := CheckBaseline(path, Options{}); err != nil {
					t.Fatalf("honest baseline failed the gate: %v", err)
				}
				for _, n := range nodes {
					if v, ok := n.v.(json.Number); ok && strings.HasPrefix(string(v), "-") {
						t.Errorf("%s measured negative: %s", n.path, v)
					}
				}
			})

			t.Run("every leaf perturbed fails", func(t *testing.T) {
				for _, n := range nodes {
					var bad any
					switch v := n.v.(type) {
					case json.Number:
						if k.rules[leafName(n.path)] != nil {
							continue // its own case below
						}
						f, _ := v.Float64()
						bad = json.Number(strconv.FormatFloat(f+1, 'g', -1, 64))
					case bool:
						bad = !v
					case string:
						bad = v + "-stale"
					default:
						continue // a row: the next case
					}
					failsAt(t, edited(t, honest, n.path, func(any) any { return bad }), n.path)
				}
			})

			t.Run("a deleted or added row fails", func(t *testing.T) {
				for _, n := range nodes {
					switch c := n.v.(type) {
					case map[string]any:
						keys := make([]string, 0, len(c))
						for key := range c {
							keys = append(keys, key)
						}
						sort.Strings(keys)
						first := keys[0]
						failsAt(t, edited(t, honest, n.path, func(v any) any {
							delete(v.(map[string]any), first)
							return v
						}), n.path+"."+first)
						failsAt(t, edited(t, honest, n.path, func(v any) any {
							m := v.(map[string]any)
							m["added"] = m[first]
							return m
						}), n.path+".added")
					case []any:
						last := len(c) - 1
						failsAt(t, edited(t, honest, n.path, func(v any) any { return v.([]any)[:last] }),
							fmt.Sprintf("%s[%d]", n.path, last))
						failsAt(t, edited(t, honest, n.path, func(v any) any { return append(v.([]any), v.([]any)[last]) }),
							fmt.Sprintf("%s[%d]", n.path, last+1))
					}
				}
			})

			t.Run("stale schema and unknown mode refused", func(t *testing.T) {
				for field, bad := range map[string]string{"schema": "lambdafs-" + k.name + "-baseline/v0", "mode": "medium"} {
					stale := filepath.Join(t.TempDir(), field+".json")
					if err := os.WriteFile(stale, edited(t, honest, field, func(any) any { return bad }), 0o644); err != nil {
						t.Fatal(err)
					}
					_, err := CheckBaseline(stale, Options{})
					if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) ||
						!strings.Contains(err.Error(), "-baseline "+k.name) {
						t.Errorf("%s %q: gate said %v", field, bad, err)
					}
				}
			})

			leavesNamed := func(name string) []jsonNode {
				var named []jsonNode
				for _, n := range nodes {
					if leafName(n.path) == name {
						named = append(named, n)
					}
				}
				return named
			}
			if allocs := leavesNamed("allocs_per_op"); len(allocs) > 0 {
				t.Run("allocs_per_op margin", func(t *testing.T) {
					for _, n := range allocs {
						f, _ := n.v.(json.Number).Float64()
						// Below the measurement and anywhere above it pass: the
						// margin is one-sided.
						for _, ok := range []float64{f - 1, f + 100} {
							committed := edited(t, honest, n.path, func(any) any { return ok })
							if err := k.compare(path, committed, fresh); err != nil {
								t.Errorf("%s %g inside its margin failed: %v", n.path, ok, err)
							}
						}
						outside := (f-hotpathAllocsSlack)/hotpathAllocsMargin - 1
						failsAt(t, edited(t, honest, n.path, func(any) any { return outside }), n.path)
					}
				})
			}

			if rows := leavesNamed("digest_match"); len(rows) > 0 {
				t.Run("diverged recovery fails", func(t *testing.T) {
					// The measurement diverged, and the committed file says so.
					diverged := honest
					for _, n := range rows {
						diverged = edited(t, diverged, n.path, func(any) any { return false })
					}
					var doc any
					if err := decodeJSON(diverged, &doc); err != nil {
						t.Fatal(err)
					}
					err := k.compare(path, diverged, doc)
					for _, n := range rows {
						if err == nil || !strings.Contains(err.Error(), n.path+": recovered state diverged") {
							t.Errorf("%s diverged: gate said %v", n.path, err)
						}
					}
				})
			}
		})
	}
}

// jsonNode is one node of a decoded baseline document: its path as the
// comparer names it, its value, and a setter for its slot in its parent.
type jsonNode struct {
	path string
	v    any
	set  func(any)
}

// jsonNodes decodes doc and lists every node under its root.
func jsonNodes(t *testing.T, doc []byte) (any, []jsonNode) {
	t.Helper()
	var root any
	if err := decodeJSON(doc, &root); err != nil {
		t.Fatal(err)
	}
	var nodes []jsonNode
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch c := v.(type) {
		case map[string]any:
			for key, x := range c {
				p := strings.TrimPrefix(path+"."+key, ".")
				nodes = append(nodes, jsonNode{p, x, func(y any) { c[key] = y }})
				walk(p, x)
			}
		case []any:
			for i, x := range c {
				p := fmt.Sprintf("%s[%d]", path, i)
				nodes = append(nodes, jsonNode{p, x, func(y any) { c[i] = y }})
				walk(p, x)
			}
		}
	}
	walk("", root)
	return root, nodes
}

// edited returns doc with the node at path replaced by f of it.
func edited(t *testing.T, doc []byte, path string, f func(any) any) []byte {
	t.Helper()
	root, nodes := jsonNodes(t, doc)
	for _, n := range nodes {
		if n.path == path {
			n.set(f(n.v))
			data, err := json.Marshal(root)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	t.Fatalf("no node %s", path)
	return nil
}

// TestHotpathBaselineGate pins the hotpath gate on its exact columns:
// the counts are exact, so a committed file claiming one round trip
// fewer is a regression; and a file claiming a slower or more contended
// run than the tree measures is as stale as one claiming a faster one.
func TestHotpathBaselineGate(t *testing.T) {
	g := measureGate(t, "hotpath")
	t.Run("deflated store-count fixtures fail", func(t *testing.T) {
		g.failsWith(t, func(f float64) float64 { return f - 1 },
			"scenarios.write_storm.ndb_reads_per_op", "scenarios.write_storm.resolve_hops_per_op")
	})
	t.Run("inflated virtual-column fixtures fail", func(t *testing.T) {
		g.failsWith(t, func(f float64) float64 { return f + 1 },
			"scenarios.subtree_mv.p99_us", "scenarios.subtree_mv.lock_wait_us_per_op",
			"scenarios.subtree_mv.virtual_wall_us")
	})
}

// TestRestartBaselineGate pins the restart gate on its recovery
// columns: a committed file claiming a much faster recovery, or one
// replayed record fewer, fails naming the leaf.
func TestRestartBaselineGate(t *testing.T) {
	g := measureGate(t, "restart")
	t.Run("deflated recovery fixture fails", func(t *testing.T) {
		g.failsWith(t, func(f float64) float64 { return f / 10 }, "rows.wal_256.recovery_us")
	})
	t.Run("replay drift fails", func(t *testing.T) {
		g.failsWith(t, func(f float64) float64 { return f - 1 }, "rows.wal_256.replayed_records")
	})
}

// measuredGate is one gate kind with a fresh tiny measurement and the
// honest document of it.
type measuredGate struct {
	k      *baselineKind
	fresh  any
	honest []byte
}

func measureGate(t *testing.T, name string) measuredGate {
	t.Helper()
	for i := range baselineKinds {
		if k := &baselineKinds[i]; k.name == name {
			fresh := k.measure(Options{Scale: Tiny, Seed: 1, Out: io.Discard})
			honest, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			return measuredGate{k, fresh, honest}
		}
	}
	t.Fatalf("no baseline kind %s", name)
	return measuredGate{}
}

// failsWith checks, for each numeric leaf path, that a committed file
// with f applied to that leaf fails the gate naming it.
func (g measuredGate) failsWith(t *testing.T, f func(float64) float64, paths ...string) {
	t.Helper()
	for _, p := range paths {
		committed := edited(t, g.honest, p, func(v any) any {
			was, _ := v.(json.Number).Float64()
			if f(was) == was {
				t.Fatalf("%s = %g: the fixture leaves it unchanged", p, was)
			}
			return f(was)
		})
		err := g.k.compare("BENCH_"+g.k.name+".json", committed, g.fresh)
		if err == nil || !strings.Contains(err.Error(), "\n  "+p+": ") {
			t.Errorf("%s edited: gate said %v", p, err)
		}
	}
}
