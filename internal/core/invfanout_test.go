package core

import (
	"fmt"
	"slices"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// recordingCoord is a Coordinator that remembers the deployment set of
// every INV round the engines start before running it — or, with fail set,
// failing it undelivered.
type recordingCoord struct {
	coordinator.Coordinator
	rounds [][]int
	fail   error
}

func (r *recordingCoord) InvalidateBatchTraced(deps []int, invs []coordinator.Invalidation, tc *trace.Ctx) error {
	r.rounds = append(r.rounds, slices.Clone(deps))
	if r.fail != nil {
		return r.fail
	}
	return r.Coordinator.InvalidateBatchTraced(deps, invs, tc)
}

// engineFleet builds perDep engines in each deployment of a ring, sharing
// a store and a coordinator that records every INV round; fleet[d] are the
// instances of deployment d.
func engineFleet(t *testing.T, clk *clock.Sim, deployments, perDep int) ([][]*Engine, *partition.Ring, *recordingCoord, *ndb.DB) {
	t.Helper()
	st := fastStore(clk)
	fleet, ring, coord := engineFleetOn(clk, st, deployments, perDep)
	return fleet, ring, coord, st
}

// engineFleetOn is engineFleet over a store the caller configured.
func engineFleetOn(clk *clock.Sim, st *ndb.DB, deployments, perDep int) ([][]*Engine, *partition.Ring, *recordingCoord) {
	zk := fastCoord(clk, st)
	coord := &recordingCoord{Coordinator: zk}
	ring := partition.NewRing(deployments, 0)
	cfg := DefaultEngineConfig()
	cfg.OpCPUCost = 0
	cfg.SubtreeCPUPerINode = 0
	fleet := make([][]*Engine, deployments)
	for d := range fleet {
		for i := 0; i < perDep; i++ {
			id := fmt.Sprintf("nn-%d%c", d, 'a'+i)
			e := NewEngine(id, d, clk, st, ring, coord, nil, cfg)
			zk.Register(d, id, e.HandleInvalidation)
			fleet[d] = append(fleet[d], e)
		}
	}
	return fleet, ring, coord
}

// TestSingleINodeWriteInvalidatesOneDeployment pins the fan-out of
// Algorithm 1: listing and children share a deployment, so a write on one
// INode has one deployment to invalidate — the path's owner — and only a
// rename across directories has two.
func TestSingleINodeWriteInvalidatesOneDeployment(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		fleet, ring, coord, _ := engineFleet(t, clk, 4, 1)
		e := fleet[0][0]
		// Two directories owned by different deployments, neither of them the
		// root's — so a target set that still included the parent's own owner
		// would be one deployment too large.
		var p, q string
		for i := 0; p == "" || q == ""; i++ {
			d := fmt.Sprintf("/d%d", i)
			switch own := ring.DeploymentForPath(d + "/f"); {
			case own == ring.DeploymentForPath(d):
			case p == "":
				p = d
			case own != ring.DeploymentForPath(p+"/f"):
				q = d
			}
		}
		owner := func(path string) []int { return []int{ring.DeploymentForPath(path)} }
		for _, c := range []struct {
			name       string
			op         namespace.OpType
			path, dest string
			want       []int
		}{
			{"mkdirs of one new component", namespace.OpMkdirs, p, "", owner(p)},
			{"mkdirs of one new component", namespace.OpMkdirs, q, "", owner(q)},
			{"create", namespace.OpCreate, p + "/f", "", owner(p + "/f")},
			{"mv inside a directory", namespace.OpMv, p + "/f", p + "/g", owner(p + "/f")},
			{"mv across directories", namespace.OpMv, p + "/g", q + "/h",
				[]int{ring.DeploymentForPath(p + "/g"), ring.DeploymentForPath(q + "/h")}},
			{"delete", namespace.OpDelete, q + "/h", "", owner(q + "/h")},
		} {
			coord.rounds = nil
			mustOK(t, e, c.op, c.path, c.dest)
			if len(coord.rounds) != 1 || !slices.Equal(coord.rounds[0], c.want) {
				t.Errorf("%s %s: INV rounds to deployments %v, want one round to %v", c.name, c.path, coord.rounds, c.want)
			}
		}
	})
}

// TestSubtreeOpInvalidatesEmptyDirListing: a listed empty directory is
// cached at hash(dir), a deployment that none of the subtree's INodes is
// owned by — the subtree INV set must name it all the same, or the
// directory keeps listing as empty after it is gone.
func TestSubtreeOpInvalidatesEmptyDirListing(t *testing.T) {
	for _, op := range []namespace.OpType{namespace.OpDelete, namespace.OpMv} {
		t.Run(op.String(), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				fleet, ring, _, _ := engineFleet(t, clk, 4, 1)
				// A tree whose empty leaf lists on a deployment owning no INode
				// of the subtree (nor the root's parent listing).
				var root, empty string
				for i := 0; ; i++ {
					root = fmt.Sprintf("/t%d", i)
					empty = root + "/empty"
					l := ring.Route(namespace.OpLs, empty)
					if l != ring.DeploymentForPath(root) && l != ring.DeploymentForPath(empty) {
						break
					}
				}
				listing := ring.Route(namespace.OpLs, empty)
				lister, writer := fleet[listing][0], fleet[(listing+1)%len(fleet)][0]

				mustOK(t, writer, namespace.OpMkdirs, empty, "")
				mustOK(t, lister, namespace.OpLs, empty, "")
				if ls := mustOK(t, lister, namespace.OpLs, empty, ""); !ls.CacheHit || len(ls.Entries) != 0 {
					t.Fatalf("second ls of %s: hit=%v entries=%v, want a cached empty listing", empty, ls.CacheHit, ls.Entries)
				}
				dest := ""
				if op == namespace.OpMv {
					dest = "/moved"
				}
				mustOK(t, writer, op, root, dest)
				wantErr(t, lister, namespace.OpLs, empty, "", namespace.ErrNotFound)
			})
		})
	}
}

// TestDirectoryMvClearsDestinationListing: a directory renamed into
// another directory appears in that directory's cached listing, on the
// writer and on its peers (the prefix INV names only the source).
func TestDirectoryMvClearsDestinationListing(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		a, b, _ := twoEngines(t, clk, 1)
		mustOK(t, a, namespace.OpMkdirs, "/src/d", "")
		mustOK(t, a, namespace.OpMkdirs, "/dst", "")
		mustOK(t, a, namespace.OpCreate, "/dst/x", "")
		for _, e := range []*Engine{a, b} {
			mustOK(t, e, namespace.OpLs, "/dst", "")
		}
		mustOK(t, a, namespace.OpMv, "/src/d", "/dst/d")
		for _, e := range []*Engine{a, b} {
			if ls := mustOK(t, e, namespace.OpLs, "/dst", ""); len(ls.Entries) != 2 {
				t.Errorf("%s: ls /dst after mv /src/d /dst/d = %+v (cache hit %v), want x and d", e.ID(), ls.Entries, ls.CacheHit)
			}
		}
	})
}
