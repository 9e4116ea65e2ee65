// Package core implements λFS's primary contribution: the serverless
// NameNode. An Engine executes file system metadata operations against
// the persistent store through a trie-structured metadata cache (§3.3),
// runs the serverless coherence protocol on writes (§3.5, Algorithm 1),
// and the subtree coherence protocol with prefix invalidations and
// elastically offloaded batches for recursive operations (Appendix D).
//
// The Engine is deployment-agnostic: wrapped in a faas.App it is a λFS
// NameNode; on a fixed fleet of warm, never-reclaimed instances it is a
// HopsFS+Cache NameNode; with caching disabled, and coherence with it, it
// is a stateless HopsFS NameNode. The baselines are System configs
// (internal/bench), which is what makes the evaluation an apples-to-apples
// architecture comparison.
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
// whole lock phase is one store.Tx.LockPath call, LockPaths for a rename's
// two paths (every row it will decide on — parents, targets, free names —
// resolved and locked under one multi-get, nothing read afterwards), its
// invalidations go out in one concurrent INV/ACK round, and subtree quiesce
// reads are batched per partition. Lock-order
// discipline is global and lives in the lock phase: target paths sorted, each
// walked from the root down — ancestors, then the child-key slot, then the
// inode row. Writes take no row lock before that call, so they inherit the
// order — but for a raced write's result row (resultrow.go), which is first
// in the order and locked by no one but its own client's writes.
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
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lambdafs/internal/cache"
	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// CPU abstracts the compute capacity an Engine runs on: the faas.Instance
// hosting it, whose vCPU queue is a λFS or a serverful NameNode's alike.
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
	// live in: metadata-cache hits/misses, result-cache hits and
	// invalidation rounds. Engines sharing one config share the counters
	// (registry get-or-create), giving fleet-wide totals. Nil gives a bare
	// engine a private registry; NewSystem makes one for all its engines.
	Metrics *telemetry.Registry

	// Admission, when non-nil, gates every tenant-tagged request before
	// it consumes CPU or touches the store (tenant.Registry implements
	// it). Requests with an empty Tenant bypass admission, so
	// single-tenant deployments pay only a nil check.
	Admission Admission
}

// Admission is the per-tenant admission-control hook consulted at the
// top of Execute. Admit returns namespace.ErrThrottled (or another
// sentinel) to reject. It counts a request once per key: a copy of a
// request already admitted — the second copy of a raced request, or a
// resubmission — passes uncounted. Every counted Admit is paired with
// Done when the operation completes.
type Admission interface {
	Admit(tenantName string, key namespace.RequestKey) (counted bool, err error)
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
	// clients whose latest write reply an engine keeps for deduplication,
	// oldest client evicted first.
	resultCacheSize = 4096
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

	results *resultCache
	offload Offloader // nil → run subtree batches locally
	tel     coreTelemetry

	freeMu     sync.Mutex
	invFree    []*invRound // spent INV round scratch, reused by invalidateAll
	resumeFree []*resume   // ended listing resumes, reused by invalidateLocal
}

// coreTelemetry holds the engine's registry instruments. The registry is
// the counter: they accumulate across every engine ever started on it, so
// they survive NameNode reclamation, and System.CacheStats reads them.
type coreTelemetry struct {
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	resultHits   *telemetry.Counter
	racedReplays *telemetry.Counter
	invRounds    *telemetry.Counter
	parallelInvs *telemetry.Counter
	subtreeParts *telemetry.Counter
	opLatency    *telemetry.Histogram
}

func newCoreTelemetry(reg *telemetry.Registry) coreTelemetry {
	return coreTelemetry{
		hits:         reg.Counter("lambdafs_core_cache_hits_total"),
		misses:       reg.Counter("lambdafs_core_cache_misses_total"),
		resultHits:   reg.Counter("lambdafs_core_result_cache_hits_total"),
		racedReplays: reg.Counter("lambdafs_core_raced_replays_total"),
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
// request simply runs (see resultCache for why a read needs no entry). A
// raced write skips the result cache: its client's result row in the store
// is its one record, on every engine (resultrow.go). The reply is written
// into req.Reply (fresh storage when nil). A copy of a replaced request
// whose race the client has already decided (Request.Decided) runs
// nothing — no admission, no CPU, no store — writes no reply and returns
// nil: nobody reads its answer. It implements rpc.Server.
func (e *Engine) Execute(req namespace.Request) *namespace.Response {
	if req.Decided() {
		return nil
	}
	dedup := req.ClientID != "" && req.Op.IsWrite() && !req.Raced
	if dedup {
		if resp, ok := e.results.get(req.Key()); ok {
			e.tel.resultHits.Inc()
			return storage(req.Reply).Set(resp)
		}
	}
	if e.cfg.Admission != nil && req.Tenant != "" {
		// Throttled responses are cheap by design: no span, no CPU charge,
		// no store traffic, no result-cache entry (the admission decides
		// each key once, so a later copy gets its verdict from there).
		counted, err := e.cfg.Admission.Admit(req.Tenant, req.Key())
		if err != nil {
			return storage(req.Reply).Set(namespace.Response{Err: namespace.ToWire(err), ServedBy: e.id})
		}
		if counted {
			defer e.cfg.Admission.Done(req.Tenant)
		}
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
	r := req.Reply
	path, err := namespace.CleanPath(req.Path)
	if err != nil {
		return fail(r, err)
	}
	switch req.Op {
	case namespace.OpRead:
		return e.read(tc, r, path)
	case namespace.OpStat:
		return e.stat(tc, r, path)
	case namespace.OpLs:
		return e.ls(tc, r, path)
	case namespace.OpCreate:
		return e.create(tc, r, path, racedOf(req))
	case namespace.OpMkdirs:
		return e.mkdirs(tc, r, path, racedOf(req))
	case namespace.OpDelete:
		return e.del(tc, r, path, racedOf(req))
	case namespace.OpMv:
		dest, derr := namespace.CleanPath(req.Dest)
		if derr != nil {
			return fail(r, derr)
		}
		return e.mv(tc, r, path, dest, racedOf(req))
	}
	return fail(r, namespace.ErrInvalidState)
}

// storage is the reply storage r, or fresh storage when the request
// brought none.
func storage(r *namespace.Reply) *namespace.Reply {
	if r == nil {
		return new(namespace.Reply)
	}
	return r
}

// fail writes the reply to a request that failed with err into r. A
// fenced NameNode's store call (store.ErrFenced) answers as a dead
// NameNode does, with a transport-class failure: namespace.ErrUnavailable,
// never an outcome, so a raced write's client retries it.
func fail(r *namespace.Reply, err error) *namespace.Response {
	if errors.Is(err, store.ErrFenced) {
		err = namespace.ErrUnavailable
	}
	return storage(r).Set(namespace.Response{Err: namespace.ToWire(err)})
}

// done writes the reply to a write that succeeded, naming id, into r.
func done(r *namespace.Reply, id namespace.INodeID) *namespace.Response {
	return storage(r).Set(namespace.Response{ID: id})
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
// (cache.LookupInto), and so is a miss's: the transaction's storage goes
// back to the store with it (store.Store.Release), so the chain is copied
// out first. A chain deeper than buf holds spills to the heap.
func (e *Engine) resolve(tc *trace.Ctx, op namespace.OpType, path string, buf []*namespace.INode) (chain []*namespace.INode, hit bool, err error) {
	if e.cachingAllowed(op, path) {
		if chain, ok := e.cache.LookupInto(path, buf); ok {
			e.tel.hits.Inc()
			return chain, true, nil
		}
		e.tel.misses.Inc()
		tx := e.st.BeginTraced(e.id, tc)
		defer e.st.Release(tx)
		chain, err := tx.ResolvePathBatched(path, store.LockShared, store.LockShared)
		// Never cache a chain crossing a foreign subtree operation: the
		// operation's single prefix INV may already have passed, so an
		// entry inserted now would never be invalidated again
		// (Appendix D's subtree protocol assumes no new cache entries
		// appear under a locked subtree).
		if err == nil && checkSubtreeLocks(chain, e.id) == nil {
			e.cache.PutChain(path, chain)
		}
		return append(buf, chain...), false, err
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

// read resolves a file and returns its block locations (open /
// getBlockLocations), written into r.
func (e *Engine) read(tc *trace.Ctx, r *namespace.Reply, path string) *namespace.Response {
	var buf [chainDepth]*namespace.INode
	chain, hit, err := e.resolve(tc, namespace.OpRead, path, buf[:0])
	if err != nil {
		return fail(r, err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(r, err)
	}
	target := chain[len(chain)-1]
	if target.IsDir {
		return fail(r, namespace.ErrIsDir)
	}
	r = storage(r)
	resp := r.SetStat(target, path, hit)
	r.SetBlocks(target.Blocks) // the reply leaves the process; the row is shared
	return resp
}

// stat resolves any path and returns its attributes, written into r.
func (e *Engine) stat(tc *trace.Ctx, r *namespace.Reply, path string) *namespace.Response {
	var buf [chainDepth]*namespace.INode
	chain, hit, err := e.resolve(tc, namespace.OpStat, path, buf[:0])
	if err != nil {
		return fail(r, err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(r, err)
	}
	return storage(r).SetStat(chain[len(chain)-1], path, hit)
}

// ls lists a directory (or stats a file, HDFS-style). Directory listings
// are served from the cache when a complete listing is cached; otherwise
// chain and children come back from the store in one fused round trip
// (store.Tx.ListPathBatched — the only store call of a miss), under shared
// locks when the listing will be cached with the completeness mark. The
// listing is cached where the ring routes ls, which is where the
// directory's children are cached: the fill is a prefetch for the reads
// and stats that follow. The reply, hit or miss, is written into r, its
// entries into r's room (namespace.Reply.EntryRoom).
func (e *Engine) ls(tc *trace.Ctx, r *namespace.Reply, path string) *namespace.Response {
	r = storage(r)
	allowed := e.cachingAllowed(namespace.OpLs, path)
	if allowed {
		if entries, ok := e.cache.Entries(path, r.EntryRoom); ok {
			e.tel.hits.Inc()
			return r.Set(namespace.Response{Entries: entries, CacheHit: true})
		}
		e.tel.misses.Inc()
	}
	tx := e.st.BeginTraced(e.id, tc)
	defer e.st.Release(tx)
	mode := store.LockNone
	if allowed {
		mode = store.LockShared
	}
	chain, kids, err := tx.ListPathBatched(path, mode)
	if err != nil {
		return fail(r, err)
	}
	if err := checkSubtreeLocks(chain, e.id); err != nil {
		return fail(r, err)
	}
	target := chain[len(chain)-1]
	if !target.IsDir {
		resp := r.SetStat(target, path, false)
		r.SetEntry(namespace.EntryOf(target))
		return resp
	}
	if allowed {
		e.cache.PutChain(path, chain)
		e.cache.PutListing(path, kids)
	}
	entries := r.EntryRoom(len(kids))
	for i, k := range kids { // name order, as the store lists the children
		entries[i] = namespace.EntryOf(k)
	}
	return r.Set(namespace.Response{ID: target.ID, Entries: entries})
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
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
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
	e.freeMu.Lock()
	e.invFree = append(e.invFree, r)
	e.freeMu.Unlock()
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
// never served, and the next fill or writer settles it. The hook is a
// resume off the engine's free list, so registering it allocates nothing
// once the engine has ended as many writes as it runs at once; with no
// complete listing cached this is one cache call.
func (e *Engine) invalidateLocal(tx store.Tx, w written, keep bool) {
	switch {
	case !e.cache.SuspendListing(w.path, w.gone):
	case keep && e.ownsPath(w.path):
		tx.AtCommitPoint(e.getResume(w).end)
	default:
		e.cache.ClearComplete(namespace.ParentPath(w.path))
	}
}

// resume is one written directory's commit-point hook: it resumes the
// listing invalidateLocal suspended with the rows w commits. It goes back
// to its engine's free list when its transaction ends, committed or not,
// and end, its hook, is bound once, when it is first made.
type resume struct {
	e   *Engine
	w   written
	end func(committed bool)
}

// run is a resume's hook (end).
func (r *resume) run(committed bool) {
	if committed {
		r.e.cache.ResumeListing(r.w.path, r.w.parent, r.w.child)
	}
	r.w = written{} // keeps no row alive on the free list
	r.e.freeMu.Lock()
	r.e.resumeFree = append(r.e.resumeFree, r)
	r.e.freeMu.Unlock()
}

// getResume returns an ended resume, or a new one, holding w.
func (e *Engine) getResume(w written) *resume {
	e.freeMu.Lock()
	var r *resume
	if n := len(e.resumeFree); n > 0 {
		r = e.resumeFree[n-1]
		e.resumeFree = e.resumeFree[:n-1]
	}
	e.freeMu.Unlock()
	if r == nil {
		r = &resume{e: e}
		r.end = r.run
	}
	r.w = w
	return r
}
