// Model-based randomized tests: drive random operation sequences through
// λFS engines and check full agreement with the reference oracle after
// every write. The oracle itself (chaos.Oracle) was promoted into
// internal/chaos so the fault-injection harness and bench experiments
// share it; this file is an external test package so it can import it.
package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/chaos"
	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// modelFleet is deployments × perDep engines over a shared store and
// coordinator (the engine_test twoEngines shape, rebuilt from exported API
// only, with the ring as one more input).
type modelFleet struct {
	clk     *clock.Sim
	ring    *partition.Ring
	byDep   [][]*core.Engine // [deployment][instance]
	engines []*core.Engine   // all of them
	db      *ndb.DB
	metrics *telemetry.Registry // the store's
	frozen  chaos.Frozen        // every published row checkFrozen has met
}

// modelCluster builds the fleet on clk. Sequential tests run it with every
// latency zero; the concurrent ones on the store's and the coordinator's
// default latencies (modelLatencies), which is what spreads their clients'
// operations over virtual time and so decides how they interleave.
func modelCluster(t *testing.T, clk *clock.Sim, deployments, perDep int, modelLatencies bool) *modelFleet {
	t.Helper()
	ncfg, ccfg := ndb.DefaultConfig(), coordinator.DefaultConfig()
	if !modelLatencies {
		ncfg.RTT, ncfg.ReadService, ncfg.WriteService = 0, 0, 0
		ncfg.LockWaitTimeout = 150 * time.Millisecond
		ccfg.HopLatency = 0
	}
	ncfg.Metrics = telemetry.NewRegistry()
	db := ndb.New(clk, ncfg)
	ccfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(db, id) }
	zk := coordinator.NewZK(clk, ccfg)

	ecfg := core.DefaultEngineConfig()
	ecfg.OpCPUCost = 0
	ecfg.SubtreeCPUPerINode = 0

	f := &modelFleet{clk: clk, ring: partition.NewRing(deployments, 0), byDep: make([][]*core.Engine, deployments), db: db, metrics: ncfg.Metrics, frozen: chaos.Frozen{}}
	for dep := range f.byDep {
		for i := 0; i < perDep; i++ {
			id := fmt.Sprintf("nn-%d%c", dep, 'a'+i)
			e := core.NewEngine(id, dep, clk, db, f.ring, zk, nil, ecfg)
			zk.Register(dep, id, e.HandleInvalidation)
			f.byDep[dep] = append(f.byDep[dep], e)
			f.engines = append(f.engines, e)
		}
	}
	return f
}

// pick draws the engine a client sends op on path to: a random instance of
// the deployment the ring routes it to, and one time in eight any engine
// of the fleet — the anti-thrash route, which a foreign deployment serves
// pass-through.
func (f *modelFleet) pick(rng *rand.Rand, op namespace.OpType, path string) *core.Engine {
	if rng.Intn(8) == 0 {
		return f.engines[rng.Intn(len(f.engines))]
	}
	dep := f.byDep[f.ring.Route(op, path)]
	return dep[rng.Intn(len(dep))]
}

// cachers returns every engine allowed to cache path: the instances of the
// deployment that owns its metadata and of the one that owns its listing.
func (f *modelFleet) cachers(path string) []*core.Engine {
	own, list := f.ring.DeploymentForPath(path), f.ring.Route(namespace.OpLs, path)
	if own == list {
		return f.byDep[own]
	}
	return append(append([]*core.Engine(nil), f.byDep[own]...), f.byDep[list]...)
}

// checkWritten checks, after a successful write, everything the write
// changed — the parents' listings first, before a stat of the written path
// can refill a cache and paper over a listing left wrongly complete —
// through every engine allowed to cache it (coherence must have
// propagated).
func (f *modelFleet) checkWritten(t *testing.T, step int, m *chaos.Oracle, path, dest string) {
	t.Helper()
	written := []string{namespace.ParentPath(path), path}
	if dest != "" {
		written = []string{namespace.ParentPath(path), namespace.ParentPath(dest), path, dest}
	}
	for _, p := range written {
		for _, e := range f.cachers(p) {
			checkAgreement(t, step, e, m, p)
		}
	}
}

// checkFrozen is the immutability rule's check (namespace.INode), made at
// quiescence: every row the store publishes and every row a cache holds for
// one of m's paths is shown to the fleet's witness, which fails the test if
// a row it has met before was written since — what a writer editing a row
// it was handed, instead of a Clone, would do. The store and cache
// audits that walk those rows come along.
func (f *modelFleet) checkFrozen(t *testing.T, step int, m *chaos.Oracle) {
	t.Helper()
	probe := map[string]bool{}
	for _, p := range m.Paths() {
		probe[p] = true
	}
	bad := append(chaos.CheckStore(f.db, f.frozen), chaos.CheckCaches(f.engines, m, probe, f.frozen)...)
	if len(bad) != 0 {
		t.Fatalf("step %d: %s", step, strings.Join(bad, "\n"))
	}
}

// witnessStore shows the witness every row the store publishes now. It
// leaves out CheckStore's audits that hold only at quiescence (no row or
// subtree lock held), so it can run while other clients are mid-operation,
// and it reports with t.Errorf, as a client goroutine must; it says whether
// every row was sound.
func (f *modelFleet) witnessStore(t *testing.T, where string) bool {
	nodes, err := f.db.ListSubtree(namespace.RootID)
	if err == nil {
		if bad := f.frozen.Check("store", nodes); len(bad) != 0 {
			err = errors.New(strings.Join(bad, "\n"))
		}
	}
	if err != nil {
		t.Errorf("%s: %v", where, err)
		return false
	}
	return true
}

// randPathUnder draws paths under prefix from a small universe so
// operations collide often. prefix "" yields root-level paths.
func randPathUnder(rng *rand.Rand, prefix string, depth int) string {
	n := rng.Intn(depth) + 1
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("n%d", rng.Intn(4))
	}
	return prefix + "/" + strings.Join(parts, "/")
}

// randOp draws the mixed workload: writes (including subtree mv/delete)
// and reads.
func randOp(rng *rand.Rand) namespace.OpType {
	switch rng.Intn(10) {
	case 0, 1, 2:
		return namespace.OpCreate
	case 3:
		return namespace.OpMkdirs
	case 4, 5:
		return namespace.OpDelete
	case 6:
		return namespace.OpMv
	case 7:
		return namespace.OpStat
	case 8:
		return namespace.OpLs
	default:
		return namespace.OpRead
	}
}

// judgeWrite checks engine/oracle error agreement for one write.
func judgeWrite(t *testing.T, step int, op namespace.OpType, path string,
	gotErr, modelErr error) {
	t.Helper()
	if (modelErr == nil) != (gotErr == nil) {
		t.Fatalf("step %d: %v %s -> engine err %v, model err %v",
			step, op, path, gotErr, modelErr)
	}
	if modelErr != nil && !errors.Is(gotErr, modelErr) {
		// Error kinds may legitimately differ only for lock timeouts,
		// which must not happen on conflict-free schedules.
		if errors.Is(gotErr, store.ErrLockTimeout) {
			t.Fatalf("step %d: unexpected lock timeout", step)
		}
		t.Fatalf("step %d: %v %s -> engine %v, model %v",
			step, op, path, gotErr, modelErr)
	}
}

// TestEngineMatchesModelRandomOps drives random operation sequences
// through a fleet of engines (shared store + coordinator) — two instances
// of one deployment, and two instances of each of four, where the INV
// target computation has something to decide — and checks full agreement
// with the reference oracle after every write: path existence, node kind,
// and listings. This exercises routing, the cache, coherence protocol,
// subtree protocol, and store together.
func TestEngineMatchesModelRandomOps(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, deployments := range []int{1, 4} {
				t.Run(fmt.Sprintf("deployments=%d", deployments), func(t *testing.T) {
					simtest.Run(t, func(clk *clock.Sim) {
						randomOpsMatchModel(t, modelCluster(t, clk, deployments, 2, false), seed)
					})
				})
			}
		})
	}
}

func randomOpsMatchModel(t *testing.T, f *modelFleet, seed int64) {
	model := chaos.NewOracle()
	rng := rand.New(rand.NewSource(seed))

	for step := 0; step < 250; step++ {
		// The fleet's store and CPU cost no virtual time: without a pause a
		// write would stamp a parent with the mtime it already holds, and
		// checkFrozen could not see a writer edit a published row in place.
		f.clk.Sleep(time.Microsecond)
		op := randOp(rng)
		path := randPathUnder(rng, "", 3)
		dest := ""
		if op == namespace.OpMv {
			dest = randPathUnder(rng, "", 3)
		}
		e := f.pick(rng, op, path)

		resp := e.Execute(namespace.Request{Op: op, Path: path, Dest: dest})
		if op.IsWrite() {
			judgeWrite(t, step, op, path,
				resp.Error(), model.Apply(op, path, dest))
		}
		if op.IsWrite() && resp.OK() {
			f.checkWritten(t, step, model, path, dest)
			f.checkFrozen(t, step, model)
		}
	}

	// Final full sweep on every engine.
	for _, e := range f.engines {
		for _, p := range model.Paths() {
			checkAgreement(t, -1, e, model, p)
		}
	}
	f.checkFrozen(t, -1, model)
}

// TestFrozenRowCheckCatchesAWrite: the witness has teeth. A row read under
// LockShared is the published row itself, as every read is, and one write
// through it is reported by the next check, from the store's table and from
// the cache that shares the row.
func TestFrozenRowCheckCatchesAWrite(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		f := modelCluster(t, clk, 1, 2, false)
		m := chaos.NewOracle()
		for _, w := range []struct {
			op   namespace.OpType
			path string
		}{{namespace.OpMkdirs, "/d"}, {namespace.OpCreate, "/d/f"}, {namespace.OpStat, "/d/f"}} {
			if resp := f.engines[0].Execute(namespace.Request{Op: w.op, Path: w.path}); !resp.OK() {
				t.Fatalf("%v %s: %s", w.op, w.path, resp.Err)
			}
			_ = m.Apply(w.op, w.path, "")
		}
		f.checkFrozen(t, 0, m)

		tx := f.db.Begin("vandal")
		chain, err := tx.ResolvePathBatched("/d/f", store.LockShared, store.LockShared)
		if err != nil {
			t.Fatal(err)
		}
		chain[2].Size++
		tx.Abort()

		probe := map[string]bool{"/d/f": true}
		bad := append(chaos.CheckStore(f.db, f.frozen), chaos.CheckCaches(f.engines, m, probe, f.frozen)...)
		if len(bad) != 2 || !strings.HasPrefix(bad[0], "store: published row was written") ||
			!strings.HasPrefix(bad[1], "cache of nn-0a: published row was written") {
			t.Fatalf("a write to the published row of /d/f was reported as %q", bad)
		}
	})
}

// history is what the clients of one concurrent run did, in the order the
// operations completed: the run's fingerprint. The clock schedules every
// goroutine of the run, so a seed's history is the same on every run and
// every P, and a failing seed replays.
type history struct{ lines []string }

func (h *history) record(client, step int, err error) {
	h.lines = append(h.lines, fmt.Sprintf("%d|%d|%v", client, step, err))
}

func (h *history) digest() string {
	if h == nil { // the run failed before it had a history to return
		return ""
	}
	sum := sha256.Sum256([]byte(strings.Join(h.lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// overSeeds runs one concurrent model workload over seeds first … first+7,
// each a subtest named after its seed, then the first seed a second time:
// same seed, same history.
func overSeeds(t *testing.T, first int64, run func(t *testing.T, seed int64) *history) {
	var want string
	for seed := first; seed < first+8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if h := run(t, seed); seed == first {
				want = h.digest()
			}
		})
	}
	t.Run(fmt.Sprintf("seed=%d replayed", first), func(t *testing.T) {
		if got := run(t, first).digest(); got != want {
			t.Fatalf("history digest %s, the first run of the seed had %s", got, want)
		}
	})
}

// TestEngineMatchesModelConcurrentClients runs several clients
// CONCURRENTLY, each on a private subtree with its own oracle and seed,
// through a shared fleet (1 and 4 deployments × 2 engines) on the default
// store and coordinator latencies — rename and recursive mv/delete
// included. Because their subtrees are disjoint, each client's oracle stays
// exact, while the shared cache, coherence protocol, subtree protocol, and
// lock manager absorb the interleaving the seed produces. After each of its
// steps a client shows the frozen-row witness the store's rows, so a writer
// that edits a published row in place is caught while the clients run. A
// final merged sweep checks every client's namespace through every engine.
func TestEngineMatchesModelConcurrentClients(t *testing.T) {
	for _, deployments := range []int{1, 4} {
		t.Run(fmt.Sprintf("deployments=%d", deployments), func(t *testing.T) {
			overSeeds(t, 1234, func(t *testing.T, seed int64) (h *history) {
				simtest.Run(t, func(clk *clock.Sim) {
					h = concurrentClientsMatchModel(t, modelCluster(t, clk, deployments, 2, true), seed)
				})
				return h
			})
		})
	}
}

func concurrentClientsMatchModel(t *testing.T, f *modelFleet, seed int64) *history {
	const (
		clients = 4
		steps   = 150
	)
	engines := f.engines

	// Carve one private subtree per client, sequentially, before racing.
	for c := 0; c < clients; c++ {
		root := fmt.Sprintf("/c%d", c)
		if resp := engines[0].Execute(namespace.Request{Op: namespace.OpMkdirs, Path: root}); !resp.OK() {
			t.Fatalf("mkdirs %s: %s", root, resp.Err)
		}
	}
	f.checkFrozen(t, 0, chaos.NewOracle()) // the rows every client's writes will replace

	h := &history{}
	models := make([]*chaos.Oracle, clients)
	running := clock.NewGroup(f.clk)
	for c := 0; c < clients; c++ {
		root := fmt.Sprintf("/c%d", c)
		m := chaos.NewOracle()
		if err := m.Mkdirs(root); err != nil {
			t.Fatalf("oracle mkdirs: %v", err)
		}
		models[c] = m
		running.Go(func() {
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for step := 0; step < steps; step++ {
				f.clk.Sleep(time.Microsecond) // see randomOpsMatchModel
				op := randOp(rng)
				path := randPathUnder(rng, root, 3)
				dest := ""
				if op == namespace.OpMv {
					dest = randPathUnder(rng, root, 3)
				}
				resp := f.pick(rng, op, path).Execute(namespace.Request{
					Op: op, Path: path, Dest: dest,
					ClientID: fmt.Sprintf("c%d", c), Seq: uint64(step + 1),
				})
				h.record(c, step, resp.Error())
				if !f.witnessStore(t, fmt.Sprintf("seed %d client %d step %d", seed, c, step)) {
					return
				}
				if !op.IsWrite() {
					continue
				}
				gotErr := resp.Error()
				modelErr := m.Apply(op, path, dest)
				if (modelErr == nil) != (gotErr == nil) ||
					(modelErr != nil && !errors.Is(gotErr, modelErr)) {
					t.Errorf("seed %d client %d step %d: %v %s -> engine %v, model %v",
						seed, c, step, op, path, gotErr, modelErr)
					return
				}
			}
		})
	}
	running.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Merged final sweep: every engine must agree with every client's
	// oracle, and the cluster must be clean.
	for _, e := range engines {
		for c := 0; c < clients; c++ {
			for _, p := range models[c].Paths() {
				if p == "/" {
					continue
				}
				checkAgreement(t, -1, e, models[c], p)
			}
		}
	}
	for _, m := range models {
		f.checkFrozen(t, -1, m)
	}
	return h
}

// TestEngineMatchesModelTwoHotDirs is the contended counterpart: every
// client works in the SAME two directories, so all writes queue on two
// parent rows — and must: a run in which no transaction ever waited for a
// row lock tested nothing — while each client owns the names it touches
// (prefix c<i>_) and therefore an exact oracle. The mix is the write path's
// whole lock phase — create, mkdirs, delete and mv of files and
// directories, within one hot directory and across both (crossing renames
// in either direction). One global lock order means no lock wait may ever
// time out.
func TestEngineMatchesModelTwoHotDirs(t *testing.T) {
	overSeeds(t, 77, func(t *testing.T, seed int64) (h *history) {
		simtest.Run(t, func(clk *clock.Sim) {
			h = twoHotDirsMatchModel(t, modelCluster(t, clk, 1, 2, true), seed)
		})
		return h
	})
}

func twoHotDirsMatchModel(t *testing.T, f *modelFleet, seed int64) *history {
	const (
		clients = 4
		steps   = 200
	)
	engines, db := f.engines, f.db
	hot := []string{"/hot0", "/hot1"}
	for _, h := range hot {
		if resp := engines[0].Execute(namespace.Request{Op: namespace.OpMkdirs, Path: h}); !resp.OK() {
			t.Fatalf("mkdirs %s: %s", h, resp.Err)
		}
	}

	h := &history{}
	models := make([]*chaos.Oracle, clients)
	running := clock.NewGroup(f.clk)
	for c := 0; c < clients; c++ {
		m := chaos.NewOracle()
		for _, h := range hot {
			if err := m.Mkdirs(h); err != nil {
				t.Fatalf("oracle mkdirs: %v", err)
			}
		}
		models[c] = m
		running.Go(func() {
			rng := rand.New(rand.NewSource(seed + int64(c)))
			// Files and directories share one small name pool per client,
			// so creates land on directories and mkdirs on files too.
			name := func() string {
				return fmt.Sprintf("%s/c%d_n%d", hot[rng.Intn(len(hot))], c, rng.Intn(5))
			}
			for step := 0; step < steps; step++ {
				e := engines[rng.Intn(len(engines))]
				op, path, dest := namespace.OpCreate, name(), ""
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
				case 4:
					op, path = namespace.OpMkdirs, path+"/s/t"
				case 5, 6:
					op = namespace.OpDelete
				default:
					op, dest = namespace.OpMv, name()
				}
				resp := e.Execute(namespace.Request{
					Op: op, Path: path, Dest: dest,
					ClientID: fmt.Sprintf("c%d", c), Seq: uint64(step + 1),
				})
				h.record(c, step, resp.Error())
				gotErr, modelErr := resp.Error(), m.Apply(op, path, dest)
				if (modelErr == nil) != (gotErr == nil) ||
					(modelErr != nil && !errors.Is(gotErr, modelErr)) {
					t.Errorf("seed %d client %d step %d: %v %s %s -> engine %v, model %v",
						seed, c, step, op, path, dest, gotErr, modelErr)
					return
				}
			}
		})
	}
	running.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if n := db.Stats().LockTimeouts; n != 0 {
		t.Fatalf("seed %d: %d lock-wait timeouts", seed, n)
	}
	var lockWaits float64
	for _, m := range f.metrics.Gather() {
		if m.Name == "lambdafs_ndb_lock_waits_total" {
			lockWaits = m.Value
		}
	}
	if lockWaits == 0 {
		t.Fatalf("seed %d: lambdafs_ndb_lock_waits_total is 0: %d clients in two directories never contended for a row", seed, clients)
	}
	t.Logf("seed %d: %.0f row-lock waits, history %s", seed, lockWaits, h.digest()[:16])
	// Each client's names agree with its oracle through both engines; the
	// hot directories themselves list the union of all clients' names.
	for _, e := range engines {
		for _, h := range hot {
			var want []string
			for c := 0; c < clients; c++ {
				for _, p := range models[c].Paths() {
					if namespace.ParentPath(p) == h {
						want = append(want, namespace.BaseName(p))
					}
					if p != "/" && p != hot[0] && p != hot[1] {
						checkAgreement(t, -1, e, models[c], p)
					}
				}
			}
			sort.Strings(want)
			ls := e.Execute(namespace.Request{Op: namespace.OpLs, Path: h})
			var got []string
			for _, ent := range ls.Entries {
				got = append(got, ent.Name)
			}
			if !ls.OK() || strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("ls %s = %v (%s), models %v", h, got, ls.Err, want)
			}
		}
	}
	if db.HeldLocks() != 0 {
		t.Fatalf("locks leaked: %d", db.HeldLocks())
	}
	if bad := db.CheckIntegrity(); len(bad) != 0 {
		t.Fatalf("store integrity: %v", bad)
	}
	return h
}

// checkAgreement verifies existence, kind, and listing of path.
func checkAgreement(t *testing.T, step int, e *core.Engine, m *chaos.Oracle, path string) {
	t.Helper()
	resp := e.Execute(namespace.Request{Op: namespace.OpStat, Path: path})
	if m.Has(path) {
		if !resp.OK() {
			t.Fatalf("step %d: stat %s failed (%s) but model has it", step, path, resp.Err)
		}
		if resp.Stat.IsDir != m.IsDir(path) {
			t.Fatalf("step %d: %s kind mismatch: engine dir=%v model dir=%v",
				step, path, resp.Stat.IsDir, m.IsDir(path))
		}
	} else if resp.OK() {
		t.Fatalf("step %d: stat %s succeeded but model deleted it", step, path)
	}
	if m.IsDir(path) {
		ls := e.Execute(namespace.Request{Op: namespace.OpLs, Path: path})
		if !ls.OK() {
			t.Fatalf("step %d: ls %s failed: %s", step, path, ls.Err)
		}
		var got []string
		for _, ent := range ls.Entries {
			got = append(got, ent.Name)
		}
		sort.Strings(got)
		want, _ := m.List(path)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("step %d: ls %s = %v, model %v", step, path, got, want)
		}
	}
}
