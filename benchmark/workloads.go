package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
	"lambdafs/internal/workload"
)

// spec is one benchmark workload. All four run on the same deployment
// (newStack); they differ in namespace layout, operation mix, loop
// discipline and cache budget only.
type spec struct {
	name string
	why  string

	clients int
	mix     workload.Mix
	// cacheBudget is each NameNode's metadata cache size (0 = unlimited).
	cacheBudget int64
	// ops is the fixed number of operations each client issues in the
	// measured phase of a closed loop; warmupOps likewise for the warm-up
	// (issued with a different seed).
	ops       int
	warmupOps int
	// warmSweeps reads every shared file that many times before the
	// warm-up, so a cache that can hold the working set does hold it.
	warmSweeps int
	// phases, when set, makes the workload an open loop: each client owns
	// a seeded due-time schedule over these rate phases.
	phases []ratePhase
	// sharedRead is the share of read/stat operations aimed at the shared
	// immutable files (the rest go to the client's own mutable files).
	sharedRead float64
	// recover crashes the store after the measured phase and requires the
	// recovered digest to equal the pre-crash one.
	recover bool
	// clusters is how many fresh clusters an end-to-end run measures at the
	// manifest's run_seconds: a constant, sized for about 10 s of measured
	// host time on the machine of results/seed.json. The count never
	// follows the host's measured speed, so the same seed always enters the
	// same clusters into the medians.
	clusters int

	layout func() layout
}

// ratePhase is one constant-rate segment of an open-loop schedule.
type ratePhase struct {
	dur  time.Duration
	rate float64 // aggregate ops per virtual second
}

// layout is a preloaded namespace. Files are either shared (immutable:
// nobody writes them, anybody reads them) or owned by exactly one client,
// which alone reads, moves and deletes them. No two clients ever race on
// a path, so every operation has exactly one correct outcome and the
// harness's model needs no guessing; contention happens where the paper
// puts it, on the parent directories' rows and caches.
type layout struct {
	dirs    []string   // every directory, parents first
	opDirs  []string   // directories ls/create/mkdirs are aimed at
	shared  []string   // immutable files
	owned   [][]string // owned[c]: client c's preloaded mutable files
	minList int        // every opDir lists at least this many entries
}

func (l layout) files() []string {
	out := append([]string(nil), l.shared...)
	for _, o := range l.owned {
		out = append(out, o...)
	}
	return out
}

const kib = 1 << 10

var readMix = workload.Mix{
	{Op: namespace.OpRead, Weight: 70},
	{Op: namespace.OpStat, Weight: 20},
	{Op: namespace.OpLs, Weight: 10},
}

// specs returns the four workloads. At scale 1 every count is a tenth of
// the size the issue drew up (one factor for all four, README "Sizes");
// the smoke test runs at 1/100 of that and clock.p2_host_ratio at 1/8.
func specs(scale float64) []*spec {
	n := func(v int) int {
		if s := int(float64(v) * scale); s > 1 {
			return s
		}
		return 1
	}
	return []*spec{
		{
			name:    "read_hot",
			why:     "closed loop, 16 clients, 70/20/10 read/stat/ls over 64x64 files that fit every cache: rpc+core+cache hit path, fixed per-op simulator overhead dominates host cost",
			clients: 16, mix: readMix, ops: n(2000), warmupOps: n(200), warmSweeps: 1,
			sharedRead: 1, clusters: 7,
			layout: func() layout { return flatLayout("rh", 64, 64, 64, 0) },
		},
		{
			name:    "read_cold",
			why:     "same mix over 65,536 files under 4,096 depth-6 dirs with a 64 KiB cache (working set ~300x cache): every read misses, so ndb resolve/RTT/queue and INode materialisation dominate",
			clients: 16, mix: readMix, ops: n(1000), warmupOps: n(200),
			cacheBudget: 64 * kib, sharedRead: 1, clusters: 5,
			layout: deepLayout,
		},
		{
			name:    "write_contend",
			why:     "closed loop, 16 clients, 50/25/20/5 create/mv/delete/mkdirs in 8 hot dirs: ndb row locks, commit, WAL fsync and the INV/ACK round dominate; cache sees invalidations, not hits; ends in crash+recover",
			clients: 16, ops: n(350), warmupOps: n(200), clusters: 16,
			mix: workload.Mix{
				{Op: namespace.OpCreate, Weight: 50},
				{Op: namespace.OpMv, Weight: 25},
				{Op: namespace.OpDelete, Weight: 20},
				{Op: namespace.OpMkdirs, Weight: 5},
			},
			recover: true,
			layout:  func() layout { return flatLayout("wc", 8, 512, 0, 16) },
		},
		{
			name:    "spotify_burst",
			why:     "open loop, 64 clients, Spotify mix over 64x64 files, 3k ops/s with a 7x (21k ops/s) spike: writes beside reads, latency timed from due time, HTTP fallbacks and pay-per-use billing under a burst",
			clients: 64, mix: workload.SpotifyMix(), warmupOps: 20, clusters: 12,
			phases: []ratePhase{
				{dur: scaleDur(800*time.Millisecond, scale), rate: 3000},
				{dur: scaleDur(400*time.Millisecond, scale), rate: 21000},
				{dur: scaleDur(800*time.Millisecond, scale), rate: 3000},
			},
			sharedRead: 0.9,
			layout:     func() layout { return flatLayout("sp", 64, 64, 48, 64) },
		},
	}
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

func specByName(name string, scale float64) *spec {
	for _, s := range specs(scale) {
		if s.name == name {
			return s
		}
	}
	return nil
}

// flatLayout is dirs top-level directories of perDir files each. The
// first sharedPerDir files of a directory are shared; the rest are dealt
// round-robin to owners clients.
func flatLayout(prefix string, dirs, perDir, sharedPerDir, owners int) layout {
	l := layout{owned: make([][]string, owners), minList: sharedPerDir}
	next := 0
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/%s%02d", prefix, d)
		l.dirs = append(l.dirs, dir)
		for f := 0; f < perDir; f++ {
			p := fmt.Sprintf("%s/f%04d", dir, f)
			if f < sharedPerDir {
				l.shared = append(l.shared, p)
				continue
			}
			l.owned[next%owners] = append(l.owned[next%owners], p)
			next++
		}
	}
	l.opDirs = l.dirs
	return l
}

// deepLayout is 4,096 leaf directories at depth 6 (fan-out 4 per level)
// holding 16 shared files each: 65,536 files, about 20 MB of INodes.
func deepLayout() layout {
	l := layout{minList: 16}
	level := []string{""}
	for depth := 0; depth < 6; depth++ {
		var next []string
		for _, parent := range level {
			for k := 0; k < 4; k++ {
				next = append(next, fmt.Sprintf("%s/rc%d", parent, k))
			}
		}
		l.dirs = append(l.dirs, next...)
		level = next
	}
	l.opDirs = level
	for _, dir := range level {
		for f := 0; f < 16; f++ {
			l.shared = append(l.shared, fmt.Sprintf("%s/f%04d", dir, f))
		}
	}
	return l
}

// actor is one simulated client: a virtual-time goroutine on the cluster's
// clock with its own rpc client, its own seeded op stream, and its own
// slice of the namespace model.
type actor struct {
	id   int
	sp   *spec
	lay  *layout
	rpc  *rpc.Client
	rng  *rand.Rand
	live []string // own files that exist now
	dirs []string // own directories created by mkdirs
	dead []string // own paths that no longer exist (bounded)
	seq  int

	lat    []int64 // virtual ns per completed op of the current phase
	isW    []bool  // parallel to lat: op was a write
	lag    []int64 // open loop: send time minus due time, virtual ns
	failed int
	issued int
	faults []string // first few failures, op and error
}

const maxDead = 4096

// nextOp draws one operation and its operands from the actor's model.
func (a *actor) nextOp() (op namespace.OpType, path, dest string) {
	op = a.sp.mix.Sample(a.rng)
	if (op == namespace.OpDelete || op == namespace.OpMv) && len(a.live) == 0 {
		op = namespace.OpCreate // nothing of its own left to remove
	}
	switch op {
	case namespace.OpRead, namespace.OpStat:
		if len(a.live) == 0 || (len(a.lay.shared) > 0 && a.rng.Float64() < a.sp.sharedRead) {
			path = a.lay.shared[a.rng.Intn(len(a.lay.shared))]
		} else {
			path = a.live[a.rng.Intn(len(a.live))]
		}
	case namespace.OpLs:
		path = a.lay.opDirs[a.rng.Intn(len(a.lay.opDirs))]
	case namespace.OpCreate:
		path = a.fresh("c")
	case namespace.OpMkdirs:
		path = a.fresh("d")
	case namespace.OpDelete, namespace.OpMv:
		i := a.rng.Intn(len(a.live))
		path = a.live[i]
		a.live[i] = a.live[len(a.live)-1]
		a.live = a.live[:len(a.live)-1]
		if op == namespace.OpMv {
			a.seq++
			dest = fmt.Sprintf("%s/m%d-%d", namespace.ParentPath(path), a.id, a.seq)
		}
	}
	return op, path, dest
}

func (a *actor) fresh(kind string) string {
	a.seq++
	dir := a.lay.opDirs[a.rng.Intn(len(a.lay.opDirs))]
	return fmt.Sprintf("%s/%s%d-%d", dir, kind, a.id, a.seq)
}

// preloaded reports whether path names a file installed by PreloadNDB
// (those carry one block with three locations; created files carry none).
func preloaded(path string) bool {
	return strings.HasPrefix(namespace.BaseName(path), "f")
}

// check compares one reply with the only outcome the model allows and
// returns "" when they agree.
func (a *actor) check(op namespace.OpType, path string, resp *namespace.Response, err error) string {
	switch {
	case err != nil:
		return "transport: " + err.Error()
	case !resp.OK():
		return resp.Err
	}
	switch op {
	case namespace.OpRead:
		if resp.Stat == nil || resp.Stat.IsDir {
			return "read reply without file attributes"
		}
		if preloaded(path) && (len(resp.Blocks) != 1 || len(resp.Blocks[0].Locations) != 3) {
			return "read reply lost the preloaded block locations"
		}
	case namespace.OpStat:
		if resp.Stat == nil || resp.Stat.Path != path {
			return "stat reply for another path"
		}
	case namespace.OpLs:
		if len(resp.Entries) < a.lay.minList {
			return fmt.Sprintf("ls returned %d entries, directory holds at least %d", len(resp.Entries), a.lay.minList)
		}
	}
	return ""
}

// do issues one operation, verifies the reply against the model and
// folds the outcome into the model. It returns whether the op succeeded.
func (a *actor) do(op namespace.OpType, path, dest string) bool {
	a.issued++
	resp, err := a.rpc.Do(op, path, dest)
	if why := a.check(op, path, resp, err); why != "" {
		a.failed++
		if len(a.faults) < 8 {
			a.faults = append(a.faults, fmt.Sprintf("%v %s: %s", op, path, why))
		}
		return false
	}
	switch op {
	case namespace.OpCreate:
		a.live = append(a.live, path)
	case namespace.OpMkdirs:
		a.dirs = append(a.dirs, path)
	case namespace.OpDelete:
		a.bury(path)
	case namespace.OpMv:
		a.live = append(a.live, dest)
		a.bury(path)
	}
	return true
}

func (a *actor) bury(path string) {
	if len(a.dead) < maxDead {
		a.dead = append(a.dead, path)
		return
	}
	a.dead[a.rng.Intn(maxDead)] = path
}
