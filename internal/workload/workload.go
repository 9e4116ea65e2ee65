// Package workload implements the benchmark drivers of the evaluation:
// the Spotify industrial workload (Table 2's operation mix replayed under
// a Pareto-distributed bursty arrival process, §5.2.1), the
// client-driven/resource scaling microbenchmarks (§5.3), the multi-tenant
// closed-loop client population of the scale experiment (RunPopulation),
// tree-test for IndexFS (§5.7), namespace pre-population,
// latency/throughput recording, and NameNode fault injection (§5.6). It is this repository's
// replacement for the paper's modified hammer-bench driver.
//
// # Concurrency and ownership
//
// Drivers spawn one goroutine per simulated client via clock.Go on the
// caller's clock and join them all before returning; nothing here ever
// sleeps on the wall clock. Randomness is owned per goroutine: Mix is
// an immutable value whose Sample takes a caller-owned *rand.Rand, and
// every client goroutine derives its own seeded source — sharing one
// rng across clients would both race and destroy per-seed
// reproducibility. ParetoLoad likewise embeds a private rng and must
// stay confined to a single goroutine. The one deliberately shared
// structure is Tree, the live-namespace pool: it is mutex-guarded and
// safe for all client goroutines to draw paths from concurrently.
// TenantClass and the default tenant tables (tenants.go) are pure data —
// construct-then-read, safe to share. RunPopulation keeps one Recorder
// per class; a throttled reply (namespace.ErrThrottled) is counted in
// Recorder.Throttled and nowhere else.
package workload

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"lambdafs/internal/namespace"
)

// FS is the client-side surface every evaluated system exposes.
type FS interface {
	Do(op namespace.OpType, path, dest string) (*namespace.Response, error)
}

// OpWeight pairs an operation with its relative frequency.
type OpWeight struct {
	Op     namespace.OpType
	Weight float64
}

// Mix is a categorical distribution over operations.
type Mix []OpWeight

// SpotifyMix returns Table 2's operation frequencies (percent).
func SpotifyMix() Mix {
	return Mix{
		{namespace.OpCreate, 2.7},
		{namespace.OpMkdirs, 0.02},
		{namespace.OpDelete, 0.75},
		{namespace.OpMv, 1.3},
		{namespace.OpRead, 69.22},
		{namespace.OpStat, 17.0},
		{namespace.OpLs, 9.01},
	}
}

// SingleOpMix returns a mix of only op (microbenchmarks).
func SingleOpMix(op namespace.OpType) Mix {
	return Mix{{op, 1}}
}

// Sample draws an operation.
func (m Mix) Sample(rng *rand.Rand) namespace.OpType {
	var total float64
	for _, w := range m {
		total += w.Weight
	}
	x := rng.Float64() * total
	for _, w := range m {
		x -= w.Weight
		if x < 0 {
			return w.Op
		}
	}
	return m[len(m)-1].Op
}

// ParetoLoad generates the bursty target throughput of §5.2.1: every
// Interval a new aggregate rate Δ is drawn from a Pareto distribution
// with shape Alpha and scale Scale (the workload's base throughput),
// capped at SpikeCap × Scale (the paper's 7× spikes).
type ParetoLoad struct {
	Alpha    float64
	Scale    float64
	SpikeCap float64
	Interval time.Duration
	rng      *rand.Rand
}

// NewParetoLoad builds the generator with the paper's parameters
// (α = 2, 15-second redraws, 7× spike cap).
func NewParetoLoad(scale float64, seed int64) *ParetoLoad {
	return &ParetoLoad{
		Alpha:    2,
		Scale:    scale,
		SpikeCap: 7,
		Interval: 15 * time.Second,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Next draws the aggregate ops/sec target for the next interval.
func (p *ParetoLoad) Next() float64 {
	u := p.rng.Float64()
	for u == 0 {
		u = p.rng.Float64()
	}
	delta := p.Scale * math.Pow(u, -1/p.Alpha)
	if cap := p.Scale * p.SpikeCap; delta > cap {
		delta = cap
	}
	return delta
}

// Series pre-draws the whole workload's per-interval targets.
func (p *ParetoLoad) Series(duration time.Duration) []float64 {
	n := int(duration / p.Interval)
	if time.Duration(n)*p.Interval < duration {
		n++
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

// Tree is the shared namespace pool the drivers operate on: it tracks
// live files and directories so generated operations mostly succeed, and
// allocates fresh unique paths for creates.
type Tree struct {
	mu     sync.Mutex
	dirs   []string
	files  []string
	nextID uint64
}

// NewTree returns a pool seeded with the given directories and files.
func NewTree(dirs, files []string) *Tree {
	return &Tree{
		dirs:  append([]string(nil), dirs...),
		files: append([]string(nil), files...),
	}
}

// FileCount returns the live file count.
func (t *Tree) FileCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.files)
}

// RandomFile picks a live file ("" when none).
func (t *Tree) RandomFile(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.files) == 0 {
		return ""
	}
	return t.files[rng.Intn(len(t.files))]
}

// RandomDir picks a directory ("" when none).
func (t *Tree) RandomDir(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.dirs) == 0 {
		return ""
	}
	return t.dirs[rng.Intn(len(t.dirs))]
}

// NewFilePath allocates a unique path in a random directory and
// tentatively registers it (callers deregister on failure with Remove).
func (t *Tree) NewFilePath(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.dirs) == 0 {
		return ""
	}
	dir := t.dirs[rng.Intn(len(t.dirs))]
	t.nextID++
	p := namespace.JoinPath(dir, "gen-"+itoa(t.nextID))
	t.files = append(t.files, p)
	return p
}

// NewDirPath allocates a unique directory path and registers it.
func (t *Tree) NewDirPath(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := "/"
	if len(t.dirs) > 0 {
		parent = t.dirs[rng.Intn(len(t.dirs))]
	}
	t.nextID++
	p := namespace.JoinPath(parent, "dir-"+itoa(t.nextID))
	t.dirs = append(t.dirs, p)
	return p
}

// TakeRandomFile removes and returns a random live file (for deletes and
// moves); "" when none remain.
func (t *Tree) TakeRandomFile(rng *rand.Rand) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.files) == 0 {
		return ""
	}
	i := rng.Intn(len(t.files))
	p := t.files[i]
	t.files[i] = t.files[len(t.files)-1]
	t.files = t.files[:len(t.files)-1]
	return p
}

// Add registers a live file.
func (t *Tree) Add(path string) {
	t.mu.Lock()
	t.files = append(t.files, path)
	t.mu.Unlock()
}

// Remove deregisters a file (failed create, successful delete).
func (t *Tree) Remove(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, f := range t.files {
		if f == path {
			t.files[i] = t.files[len(t.files)-1]
			t.files = t.files[:len(t.files)-1]
			return
		}
	}
}

// RenameTarget allocates a fresh sibling name for a mv of path.
func (t *Tree) RenameTarget(path string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return namespace.JoinPath(namespace.ParentPath(path), "mv-"+itoa(t.nextID))
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
