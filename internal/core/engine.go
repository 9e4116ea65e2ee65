// Package core implements λFS's primary contribution: the serverless
// NameNode. An Engine executes file system metadata operations against
// the persistent store through a trie-structured metadata cache (§3.3),
// runs the serverless coherence protocol on writes (§3.5, Algorithm 1),
// and the subtree coherence protocol with prefix invalidations and
// elastically offloaded batches for recursive operations (Appendix D).
//
// The Engine is deployment-agnostic: wrapped in a faas.App it is a λFS
// NameNode; hosted on a fixed serverful cluster it is a HopsFS+Cache
// NameNode; with caching and coherence disabled it is a stateless HopsFS
// NameNode. The baselines in internal/hopsfs reuse it directly, which is
// what makes the evaluation an apples-to-apples architecture comparison.
//
// # Concurrency and ownership
//
// An Engine is safe for concurrent Execute calls; its mutable state is
// the metadata cache (internally locked) and its registry instruments
// (atomics). Correctness across engines is owned by the store's strict
// 2PL row locks plus the coherence protocol — never by engine-local
// locking. Every goroutine the engine starts (parallel subtree
// partitions, batch invalidation rounds) runs under clock.Go on the
// simulation clock, and every wait parks on a clock-owned primitive
// (clock.Sleep, Mailbox, Event, Group), never on a raw channel.
// Every hot operation has one shape: path resolution is a single batched
// per-shard multi-get (read and stat), a listing miss is that same
// multi-get with the directory's children riding in it
// (store.Tx.ListPathBatched — ls makes no other store call), a write's
// whole lock phase is one store.Tx.LockPaths call (every row it will decide
// on — parents, targets, free names — resolved and locked under one
// multi-get, nothing read afterwards), its invalidations go out in one
// concurrent INV/ACK round, and subtree quiesce reads are batched per
// partition. Lock-order
// discipline is global and lives in LockPaths: target paths sorted, each
// walked from the root down — ancestors, then the child-key slot, then the
// inode row. Writes take no row lock before that call, so they inherit the
// order.
//
// Who caches what is the ring's decision, not the engine's: an engine
// fills its cache only with what partition.Ring.Route sends to its own
// deployment — a path's metadata at hash(parent), a directory's listing at
// hash(dir), beside the children it lists — so a single-INode write
// invalidates exactly one deployment, DeploymentForPath(path), and a
// subtree operation the ring's DeploymentsForSubtree of its directories.
//
// The INV round is for the followers. The writer keeps its own listing: it
// holds every directory whose child set it changes exclusive in the store
// and every listing fill holds that row shared, so where it owns the
// written path the local half of the INV (invalidateLocal) removes the
// written INode's entry and only suspends a complete listing of the
// directory — never served while suspended — and a store.Tx.AtCommitPoint
// hook, run once the write is applied and durable and before any lock is
// released, installs the committed directory and child rows and resumes it.
// The cache package doc has the listing's three states and who may change
// them; followers, non-owning (anti-thrash) writers, aborted and failed
// commits and the subtree protocol's prefix INV invalidate plainly.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lambdafs/internal/cache"
	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/datanode"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// CPU abstracts the compute capacity an Engine runs on: a faas.Instance
// for λFS, a serverful NameNode's vCPU queue for the baselines.
type CPU interface {
	AcquireCPU(d time.Duration)
}

// nopCPU charges nothing (unit tests).
type nopCPU struct{}

func (nopCPU) AcquireCPU(time.Duration) {}

// Offloader lets an Engine push subtree sub-operation batches to helper
// NameNodes in other deployments (Appendix D's serverless offloading).
type Offloader interface {
	// OffloadBatch runs fn on a helper NameNode outside deployment
	// excludeDep, returning false when no helper is available (the
	// caller then runs fn locally).
	OffloadBatch(excludeDep int, fn func(cpu CPU)) bool
}

// EngineConfig tunes one Engine.
type EngineConfig struct {
	// OpCPUCost is the instance CPU consumed by one metadata operation.
	OpCPUCost time.Duration
	// SubtreeCPUPerINode is the instance CPU per INode of subtree batch
	// processing.
	SubtreeCPUPerINode time.Duration
	// CacheBudget is the metadata cache size in bytes (0 = unlimited,
	// negative = caching disabled → stateless HopsFS NameNode).
	CacheBudget int64
	// SubtreeBatch is the sub-operation batch size (paper default 512).
	SubtreeBatch int

	// Metrics is the registry the engine instruments (lambdafs_core_*)
	// live in: metadata-cache hits/misses and invalidation rounds. Engines
	// sharing one config share the counters (registry get-or-create),
	// giving fleet-wide totals. Nil gives a bare engine a private
	// registry; NewSystem and hopsfs.New make one for all their engines.
	Metrics *telemetry.Registry

	// Admission, when non-nil, gates every tenant-tagged request before
	// it consumes CPU or touches the store (tenant.Registry implements
	// it). Requests with an empty Tenant bypass admission, so
	// single-tenant deployments pay only a nil check.
	Admission Admission
}

// Admission is the per-tenant admission-control hook consulted at the
// top of Execute. Admit returns namespace.ErrThrottled (or another
// sentinel) to reject; every successful Admit is paired with Done when
// the operation completes.
type Admission interface {
	Admit(tenantName string) error
	Done(tenantName string)
}

// DefaultEngineConfig matches the evaluation's λFS NameNode settings.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		OpCPUCost:          400 * time.Microsecond,
		SubtreeCPUPerINode: 2 * time.Microsecond,
		CacheBudget:        0,
		SubtreeBatch:       512,
	}
}

const (
	// resultCacheSize bounds the resubmission result cache: the number of
	// write replies (FIFO) an engine keeps for deduplication.
	resultCacheSize = 4096
	// dataNodeViewTTL is how long a cached DataNode fleet view stays
	// fresh.
	dataNodeViewTTL = 10 * time.Second
	// replication is the block replication factor for new files.
	replication = 3
)

// Engine executes metadata operations. One Engine runs per NameNode
// instance.
type Engine struct {
	id    string
	dep   int // owning deployment; -1 when unpartitioned
	ring  *partition.Ring
	st    store.Store
	coord coordinator.Coordinator // nil → no coherence (stateless baseline)
	cache *cache.Cache            // nil → no caching
	cpu   CPU
	clk   *clock.Sim
	cfg   EngineConfig

	dnview  *datanode.View
	results *resultCache
	offload Offloader // nil → run subtree batches locally
	tel     coreTelemetry

	invMu   sync.Mutex
	invFree []*invRound // spent INV round scratch, reused by invalidateAll
}

// coreTelemetry holds the engine's registry instruments. The registry is
// the counter: they accumulate across every engine ever started on it, so
// they survive NameNode reclamation, and System.CacheStats reads them.
type coreTelemetry struct {
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	invRounds    *telemetry.Counter
	parallelInvs *telemetry.Counter
	subtreeParts *telemetry.Counter
	opLatency    *telemetry.Histogram
}

func newCoreTelemetry(reg *telemetry.Registry) coreTelemetry {
	return coreTelemetry{
		hits:         reg.Counter("lambdafs_core_cache_hits_total"),
		misses:       reg.Counter("lambdafs_core_cache_misses_total"),
		invRounds:    reg.Counter("lambdafs_core_invalidation_rounds_total"),
		parallelInvs: reg.Counter("lambdafs_core_parallel_invalidations_total"),
		subtreeParts: reg.Counter("lambdafs_core_subtree_partitions_total"),
		opLatency:    reg.Histogram("lambdafs_core_op_latency_seconds"),
	}
}

// NewEngine builds an engine. ring may be nil for unpartitioned
// baselines; coord may be nil to disable the coherence protocol (only
// valid when caching is disabled or the engine is the sole cache).
func NewEngine(id string, dep int, clk *clock.Sim, st store.Store, ring *partition.Ring,
	coord coordinator.Coordinator, cpu CPU, cfg EngineConfig) *Engine {
	if cpu == nil {
		cpu = nopCPU{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	e := &Engine{
		id: id, dep: dep, ring: ring, st: st, coord: coord, cpu: cpu, clk: clk, cfg: cfg,
		dnview:  datanode.NewView(clk, st, id, dataNodeViewTTL, replication),
		results: newResultCache(resultCacheSize),
	}
	if cfg.CacheBudget >= 0 {
		e.cache = cache.New(cfg.CacheBudget)
	}
	e.tel = newCoreTelemetry(cfg.Metrics)
	return e
}

// SetOffloader installs the subtree batch offloader.
func (e *Engine) SetOffloader(o Offloader) { e.offload = o }

// ID returns the engine's NameNode identifier.
func (e *Engine) ID() string { return e.id }

// Cache exposes the metadata cache (nil when disabled); used by the
// coherence INV handler and diagnostics.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// HandleInvalidation applies an INV from the coherence protocol:
// invalidate the target with everything under it (which is all a subtree
// INV's prefix asks for) and drop the parent listing's completeness.
func (e *Engine) HandleInvalidation(inv coordinator.Invalidation) {
	if e.cache == nil {
		return
	}
	e.cache.Invalidate(inv.Path)
	e.cache.ClearComplete(namespace.ParentPath(inv.Path))
}

// Execute runs one metadata request to completion. A write carrying a
// ClientID is first looked up in, and its reply then kept in, the result
// cache, so a resubmission answers what the first execution did; any other
// request simply runs (see resultCache for why a read needs no entry). It
// implements rpc.Server.
func (e *Engine) Execute(req namespace.Request) *namespace.Response {
	dedup := req.ClientID != "" && req.Op.IsWrite()
	if dedup {
		if r := e.results.get(req.Key()); r != nil {
			return r
		}
	}
	if e.cfg.Admission != nil && req.Tenant != "" {
		// Throttled responses are cheap by design: no span, no CPU charge,
		// no store traffic, no result-cache entry (a resubmission should
		// re-attempt admission, not replay the rejection).
		if err := e.cfg.Admission.Admit(req.Tenant); err != nil {
			return &namespace.Response{Err: namespace.ToWire(err), ServedBy: e.id}
		}
		defer e.cfg.Admission.Done(req.Tenant)
	}
	start := e.clk.Now()
	sp := req.TC.Start(trace.KindEngineExec)
	sp.SetInstance(e.id)
	sp.SetDeployment(e.dep)
	tc := sp.Ctx() // nil when untraced: everything below no-ops on it
	cpuSp := tc.Start(trace.KindEngineCPU)
	e.cpu.AcquireCPU(e.cfg.OpCPUCost)
	cpuSp.End()
	resp := e.execute(tc, req)
	e.tel.opLatency.Observe(e.clk.Since(start))
	sp.End()
	resp.ServedBy = e.id
	if dedup {
		e.results.put(req.Key(), resp)
	}
	return resp
}

func (e *Engine) execute(tc *trace.Ctx, req namespace.Request) *namespace.Response {
	path, err := namespace.CleanPath(req.Path)
	if err != nil {
		return fail(err)
	}
	switch req.Op {
	case namespace.OpRead:
		return e.read(tc, path)
	case namespace.OpStat:
		return e.stat(tc, path)
	case namespace.OpLs:
		return e.ls(tc, path)
	case namespace.OpCreate:
		return e.create(tc, path)
	case namespace.OpMkdirs:
		return e.mkdirs(tc, path)
	case namespace.OpDelete:
		return e.del(tc, path)
	case namespace.OpMv:
		dest, derr := namespace.CleanPath(req.Dest)
		if derr != nil {
			return fail(derr)
		}
		return e.mv(tc, path, dest)
	}
	return fail(namespace.ErrInvalidState)
}

func fail(err error) *namespace.Response {
	return &namespace.Response{Err: namespace.ToWire(err)}
}

// cachingAllowed reports whether this engine may populate its cache with
// what op reads at path: always for unpartitioned engines, otherwise only
// when this is the deployment the ring routes op on path to. When
// anti-thrashing routes a request anywhere else the op is served
// pass-through, because only that deployment receives the INVs that keep
// such an entry coherent.
func (e *Engine) cachingAllowed(op namespace.OpType, path string) bool {
	if e.cache == nil {
		return false
	}
	if e.ring == nil || e.dep < 0 {
		return true
	}
	return e.ring.Route(op, path) == e.dep
}

// resolve returns the INode chain for path, serving from the cache when
// possible and filling the cache with a shared-locked store resolution on
// misses (the staleness guard of §3.5: a concurrent writer's exclusive
// locks serialize against the fill, and the chain is inserted before the
// locks are released). A hit's chain is written into buf when it fits
// (cache.LookupInto); a miss's is the transaction's, which stays readable
// after the deferred Abort because a transaction is never reused.
func (e *Engine) resolve(tc *trace.Ctx, op namespace.OpType, path string, buf []*namespace.INode) (chain []*namespace.INode, hit bool, err error) {
	if e.cachingAllowed(op, path) {
		if chain, ok := e.cache.LookupInto(path, buf); ok {
			e.tel.hits.Inc()
			return chain, true, nil
		}
		e.tel.misses.Inc()
		tx := e.st.BeginTraced(e.id, tc)
		defer tx.Abort()
		chain, err := tx.ResolvePathBatched(path, store.LockShared, store.LockShared)
		if err != nil {
			return chain, false, err
		}
		// Never cache a chain crossing a foreign subtree operation: the
		// operation's single prefix INV may already have passed, so an
		// entry inserted now would never be invalidated again
		// (Appendix D's subtree protocol assumes no new cache entries
		// appear under a locked subtree).
		if checkSubtreeLocks(chain, e.id) == nil {
			e.cache.PutChain(path, chain)
		}
		return chain, false, nil
	}
	// Pass-through: one lock-free batched per-shard multi-get.
	chain, err = e.st.ResolvePathBatched(path, tc)
	return chain, false, err
}

// chainDepth is the chain length read's and stat's stack buffer holds: the
// root and 15 components. A deeper hit's chain spills to the heap.
const chainDepth = 16

// checkSubtreeLocks rejects operations whose path crosses an in-progress
// subtree operation (subtree isolation, Appendix D).
func checkSubtreeLocks(chain []*namespace.INode, self string) error {
	for _, n := range chain {
		if n.SubtreeLockOwner != "" && n.SubtreeLockOwner != self {
			return namespace.ErrSubtreeBusy
		}
	}
	return nil
}

// statReply is a stat reply as one object: the Response and the StatInfo
// its Stat points at.
type statReply struct {
	resp namespace.Response
	stat namespace.StatInfo
}

// readReply is a read reply as one object: a statReply, plus room for the
// private copy of a one-block list with up to replication locations. A
// longer list spills to the heap (namespace.CloneBlocksInto).
type readReply struct {
	statReply
	block [1]namespace.Block
	locs  [replication]string
}

// fill makes r the reply for n at path and returns its Response.
func (r *statReply) fill(n *namespace.INode, path string, hit bool) *namespace.Response {
	r.stat = namespace.StatOf(n, path)
	r.resp = namespace.Response{ID: n.ID, Stat: &r.stat, CacheHit: hit}
	return &r.resp
}

// read resolves a file and returns its block locations (open /
// getBlockLocations).
func (e *Engine) read(tc *trace.Ctx, path string) *namespace.Response {
	var buf [chainDepth]*namespace.INode
	chain, hit, err := e.resolve(tc, namespace.OpRead, path, buf[:0])
	if err != nil {
		return fail(err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(err)
	}
	target := chain[len(chain)-1]
	if target.IsDir {
		return fail(namespace.ErrIsDir)
	}
	r := new(readReply)
	resp := r.fill(target, path, hit)
	resp.Blocks = namespace.CloneBlocksInto(target.Blocks, r.block[:], r.locs[:]) // the reply leaves the process; the row is shared
	return resp
}

// stat resolves any path and returns its attributes.
func (e *Engine) stat(tc *trace.Ctx, path string) *namespace.Response {
	var buf [chainDepth]*namespace.INode
	chain, hit, err := e.resolve(tc, namespace.OpStat, path, buf[:0])
	if err != nil {
		return fail(err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(err)
	}
	return new(statReply).fill(chain[len(chain)-1], path, hit)
}

// ls lists a directory (or stats a file, HDFS-style). Directory listings
// are served from the cache when a complete listing is cached; otherwise
// chain and children come back from the store in one fused round trip
// (store.Tx.ListPathBatched — the only store call of a miss), under shared
// locks when the listing will be cached with the completeness mark. The
// listing is cached where the ring routes ls, which is where the
// directory's children are cached: the fill is a prefetch for the reads
// and stats that follow.
func (e *Engine) ls(tc *trace.Ctx, path string) *namespace.Response {
	allowed := e.cachingAllowed(namespace.OpLs, path)
	if allowed {
		if entries, ok := e.cache.Entries(path); ok {
			e.tel.hits.Inc()
			return &namespace.Response{Entries: entries, CacheHit: true}
		}
		e.tel.misses.Inc()
	}
	tx := e.st.BeginTraced(e.id, tc)
	defer tx.Abort()
	mode := store.LockNone
	if allowed {
		mode = store.LockShared
	}
	chain, kids, err := tx.ListPathBatched(path, mode)
	if err != nil {
		return fail(err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(err)
	}
	target := chain[len(chain)-1]
	if !target.IsDir {
		resp := new(statReply).fill(target, path, false)
		resp.Entries = []namespace.DirEntry{namespace.EntryOf(target)}
		return resp
	}
	if allowed {
		e.cache.PutChain(path, chain)
		e.cache.PutListing(path, kids)
	}
	return &namespace.Response{ID: target.ID, Entries: toEntries(kids)}
}

func toEntries(kids []*namespace.INode) []namespace.DirEntry {
	out := make([]namespace.DirEntry, len(kids))
	for i, k := range kids {
		out[i] = namespace.EntryOf(k)
	}
	namespace.SortEntries(out)
	return out
}

// written is one directory's share of a single-INode write: the path whose
// INode the write adds, replaces or removes, that directory's own row as
// written (new mtime), and the row now at path — nil when the write removed
// it. gone, set only by a rename inside one directory, is the old path,
// which empties in the same stroke; a rename across directories is two
// shares, one per directory.
type written struct {
	path   string
	parent *namespace.INode
	child  *namespace.INode
	gone   string
}

// invTargets appends to deps the deployments whose caches may hold
// metadata invalidated by a single-INode write: each written path's owner,
// which caches the INode and, being where its siblings live, the parent's
// listing too. One deployment per written directory. Unpartitioned engines
// (serverful cached baselines) target every peer.
func (e *Engine) invTargets(deps []int, ws []written) []int {
	if e.ring == nil {
		return append(deps, e.dep)
	}
	for i := range ws {
		if d := e.ring.DeploymentForPath(ws[i].path); !slices.Contains(deps, d) {
			deps = append(deps, d)
		}
	}
	return deps
}

// invRound is one INV round's scratch: its target deployments and its
// batch. The coordinator reads neither once the round returns, so a spent
// one goes back to the engine's free list with its arrays.
type invRound struct {
	deps []int
	invs []coordinator.Invalidation
}

// getInvRound returns a spent round's scratch, emptied, or a new one.
func (e *Engine) getInvRound() *invRound {
	e.invMu.Lock()
	defer e.invMu.Unlock()
	if n := len(e.invFree); n > 0 {
		r := e.invFree[n-1]
		e.invFree = e.invFree[:n-1]
		return r
	}
	return new(invRound)
}

// putInvRound gives back a round's scratch; its batch keeps no path alive.
func (e *Engine) putInvRound(r *invRound) {
	clear(r.invs)
	r.deps, r.invs = r.deps[:0], r.invs[:0]
	e.invMu.Lock()
	e.invFree = append(e.invFree, r)
	e.invMu.Unlock()
}

// ownsPath reports whether this engine's deployment is the owner of path's
// metadata and of the listing path appears in — the one place a complete
// listing of path's directory can be cached.
func (e *Engine) ownsPath(path string) bool {
	return e.ring == nil || e.dep < 0 || e.ring.DeploymentForPath(path) == e.dep
}

// invalidateAll runs the INV/ACK exchange for a single-INode write (remote
// caches first — Algorithm 1 requires all ACKs before persisting) and then
// invalidates the local cache. All paths go out in one concurrent round
// whose latency is ~max of the per-target legs. When traced, the exchange
// becomes a coherence.inv span with one coherence.target child per remote
// member, and one coherence_inv event whose duration is the ACK wait and
// whose detail carries any failure, including the unresponsive targets.
//
// Followers drop what they hold; the writer need not. It holds every
// written directory's row exclusive and knows the rows it is committing, so
// where it owns a written path and has the directory's listing complete,
// the local half only suspends the listing (invalidateLocal) and a hook at
// tx's commit point brings it back exact.
func (e *Engine) invalidateAll(tc *trace.Ctx, tx store.Tx, ws ...written) error {
	r := e.getInvRound()
	defer e.putInvRound(r)
	r.deps = e.invTargets(r.deps, ws)
	deps := r.deps
	paths := len(ws)
	for i := range ws {
		if ws[i].gone != "" {
			paths++
		}
	}
	e.tel.invRounds.Inc()
	sp := tc.Start(trace.KindCoherence)
	var start time.Time
	if tc != nil {
		sp.SetDeployment(e.dep)
		sp.SetInstance(e.id)
		sp.SetDetail(fmt.Sprintf("deps=%d paths=%d", len(deps), paths))
		start = e.clk.Now()
	}
	var invErr error
	if e.coord != nil {
		for i := range ws {
			if ws[i].gone != "" {
				r.invs = append(r.invs, coordinator.Invalidation{Path: ws[i].gone, Writer: e.id})
			}
			r.invs = append(r.invs, coordinator.Invalidation{Path: ws[i].path, Writer: e.id})
		}
		e.tel.parallelInvs.Add(float64(paths))
		// Target legs nest under the coherence.inv span, so the
		// critical-path walk sees the exchange as parent of its slowest
		// member leg; each leg bills its own INV delivery.
		invErr = e.coord.InvalidateBatchTraced(deps, r.invs, sp.Ctx())
	}
	// The local invalidation is unconditionally safe (it only removes
	// entries), so apply it even when a remote ACK timed out — the caller
	// aborts the write, leaving the store unchanged.
	if e.cache != nil {
		for i := range ws {
			e.invalidateLocal(tx, ws[i], invErr == nil)
		}
	}
	if tc != nil {
		detail := fmt.Sprintf("deps=%d paths=%d", len(deps), paths)
		if invErr != nil {
			detail += " err=" + invErr.Error()
		}
		tc.Emit(trace.Event{
			Type: trace.EventCoherenceINV, Deployment: e.dep, Instance: e.id,
			Dur:    e.clk.Since(start),
			Detail: detail,
		})
	}
	sp.End()
	return invErr
}

// invalidateLocal is the writer's own cache's share of w's INV, applied
// before the commit so that from the instant the store applies the write no
// cache serves the old row: the written INode's entry goes, and a complete
// listing of the directory is suspended (anything less is left unknown).
// With keep (the round succeeded) and the path owned, the suspended listing
// is resumed with the committed rows at tx's commit point — after the
// fsync, so the cache never holds a row that is not durable, and before the
// locks release, so no other writer or fill can come between; otherwise it
// is dropped. A write that aborts never resumes: the suspended listing is
// never served, and the next fill or writer settles it. With no complete
// listing cached this is one cache call and allocates nothing more.
func (e *Engine) invalidateLocal(tx store.Tx, w written, keep bool) {
	switch {
	case !e.cache.SuspendListing(w.path, w.gone):
	case keep && e.ownsPath(w.path):
		tx.AtCommitPoint(func() { e.cache.ResumeListing(w.path, w.parent, w.child) })
	default:
		e.cache.ClearComplete(namespace.ParentPath(w.path))
	}
}
