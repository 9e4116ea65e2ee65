// Package ndb implements the persistent metadata store of λFS and HopsFS:
// an in-memory, sharded, transactional row store modelled on MySQL Cluster
// NDB. It provides ACID transactions with strict two-phase row locking,
// batched single-round-trip path resolution, generic KV tables, and —
// crucially for the evaluation — an explicit capacity model: every store
// access costs a network round trip plus service time on its data node,
// a FIFO queue in front of WorkersPerNode servers (a clock.Queue: the
// access books the earliest-free server and sleeps through its wait and
// its service; no goroutines), so the store saturates and queues exactly
// like the paper's NDB cluster does (making it the write-path bottleneck
// for all systems and the read-path bottleneck for cache-less HopsFS).
//
// # Concurrency and ownership
//
// A DB is safe for any number of concurrent transactions; rows are owned
// by whichever transaction holds their lock, and a transaction is owned
// by a single goroutine (Tx is not safe for concurrent use). Row locks
// charge no service time — only row reads/writes consume shard capacity,
// booked on each shard's queue in arrival order (accesses arriving at the
// same virtual instant are ordered by the queue's mutex). Every access
// counts its rows on their shards and books them all at one instant
// (reserveShards), waiting once for the slowest: a read (serviceMultiT)
// after its RTT, a commit beside its RTT and WAL fsync. The batched
// operations (ResolvePathBatched, ListPathBatched, LockPath, LockPaths,
// GetINodesBatched, ListSubtreeBatched) take the same locks in the same
// global order as their serial equivalents.
// Deadlock avoidance is that order — which the lock phase fixes for a write's
// whole row set (paths sorted, each walked root-down, strongest mode and
// slot-first per row up front) — plus the LockWaitTimeout backstop.
//
// # The write set
//
// A transaction buffers its row writes in a list it owns, one entry per
// row in the order the row was first written (a later write of the row
// replaces its entry in place), with inline room for a usual write's
// rows; its reads see their own writes through it. At commit the WAL
// record takes the list's puts and deletes sorted by row ID, and the apply
// follows the record, so a record's bytes depend only on what the
// transaction wrote.
package ndb

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// Config sets the capacity/latency model of the store.
type Config struct {
	// DataNodes is the number of NDB data-node shards.
	DataNodes int
	// WorkersPerNode is the per-shard service concurrency (transaction
	// coordinator threads).
	WorkersPerNode int
	// RTT is the one-round-trip network latency between a metadata server
	// and the store.
	RTT time.Duration
	// ReadService is the service time of a primary-key read batch.
	ReadService time.Duration
	// WriteService is the service time of a row write batch at commit.
	WriteService time.Duration
	// BatchRows is how many rows one service slot covers, read or write
	// (batched primary-key operations): a shard serves its n rows of one
	// access in ceil(n/BatchRows) slots.
	BatchRows int
	// LockWaitTimeout is the lock wait timeout (deadlock/crash
	// detection), in virtual time: it expires at an exact simulated instant.
	LockWaitTimeout time.Duration

	// OnShardService, when non-nil, is consulted before every shard
	// service charge, read or commit, with the target shard index; the
	// returned duration is added to the service time (fault injection:
	// per-shard stalls and crash/recover windows). A stalled shard delays
	// the accesses with rows on it and no other. It must be safe for
	// concurrent use.
	OnShardService func(shard int) time.Duration
	// OnCommit, when non-nil, is consulted at the top of every Commit with
	// the transaction's owner; a non-nil error aborts the transaction and
	// is returned to the caller (fault injection: transaction aborts).
	// It must be safe for concurrent use.
	OnCommit func(owner string) error

	// Durable, when non-nil, attaches the durability tier: every
	// committed write-transaction appends a WAL record before its locks
	// release, checkpoints persist snapshots through internal/lsm, and
	// Recover rebuilds the store from the media after a crash. New
	// formats the media (a fresh store never resurrects a previous
	// epoch); attach one Durable to at most one live DB at a time. When
	// set, DataNodes is forced to the media's shard count.
	Durable *Durable
	// Durability tunes the durability tier's latency and checkpoint
	// cadence; only consulted when Durable is non-nil.
	Durability DurabilityConfig
	// OnWALAppend, when non-nil, is consulted on every WAL append with
	// the owning shard, the record's LSN, and the frame size; it returns
	// how many bytes reach durable media (>= size: intact, 0: dropped,
	// in between: torn write). Fault injection for crash-consistency
	// testing. It must be safe for concurrent use.
	OnWALAppend func(shard int, lsn uint64, size int) int
	// OnCheckpoint, when non-nil, is consulted once per shard per
	// checkpoint round; false silently loses that shard's round (its
	// previous checkpoint and the WAL records covering the gap survive,
	// so recovery still converges). It must be safe for concurrent use.
	OnCheckpoint func(shard int) bool

	// Metrics is the registry the store's instruments (lambdafs_ndb_*)
	// live in: per-shard queue depth gauges, lock waits, and the counters
	// Stats() reads. Nil gives the store a private registry of its own.
	Metrics *telemetry.Registry
}

// DefaultConfig mirrors the paper's 4-data-node NDB deployment with
// service times calibrated so aggregate read capacity lands near the
// HopsFS ceiling observed in the evaluation.
func DefaultConfig() Config {
	return Config{
		DataNodes:       4,
		WorkersPerNode:  8,
		RTT:             300 * time.Microsecond,
		ReadService:     150 * time.Microsecond,
		WriteService:    400 * time.Microsecond,
		BatchRows:       64,
		LockWaitTimeout: 250 * time.Millisecond,
	}
}

// Stats exposes store-level counters for the evaluation: a read of the
// lambdafs_ndb_*_total registry counters (see DB.Stats).
type Stats struct {
	Reads        uint64
	Writes       uint64
	Commits      uint64
	Aborts       uint64
	LockTimeouts uint64
	// BatchedResolves counts multi-get path resolutions (one per
	// ResolvePathBatched call, transactional or not).
	BatchedResolves uint64
	// ResolveHops counts dependent path-resolution rounds: a serial
	// resolution of an n-component path adds n (one awaited lookup per
	// component), a batched resolution adds 1 (the whole chain fetched
	// in a single multi-get round). The hotpath benchmark divides this
	// by ops to report NDB round trips per resolution.
	ResolveHops uint64
	// LockWaitNS accumulates virtual nanoseconds transactions spent
	// waiting on contended row locks (0 while every acquire is granted
	// immediately). The hotpath baseline gates lock-wait/op on it.
	LockWaitNS uint64
	// WALAppends / WALBytes count WAL records appended and their frame
	// bytes; Checkpoints counts completed checkpoint rounds. All zero
	// without a durability tier attached.
	WALAppends  uint64
	WALBytes    uint64
	Checkpoints uint64
}

// DB is the NDB-like store. It implements store.Store.
type DB struct {
	cfg Config
	clk *clock.Sim

	mu       sync.RWMutex
	inodes   map[namespace.INodeID]*namespace.INode
	children map[namespace.INodeID]childList // per directory; nil while Recover replays
	kv       map[string]map[string][]byte

	nextID atomic.Uint64
	locks  *lockManager
	txMu   sync.Mutex
	txFree []*tx          // released transactions, emptied, for BeginTraced to reuse
	shards []*clock.Queue // one service queue of WorkersPerNode servers per data node
	tel    storeTelemetry

	// Durability tier (nil when Config.Durable is nil).
	dur        *Durable
	ckptMu     sync.Mutex    // serializes checkpoint rounds
	commitTick atomic.Uint64 // write-commits since New, for CheckpointEvery
	dirty      []dirtyRows   // per shard, guarded by mu; nil without durability
	walRec     walRecord     // record scratch of logAndApply, guarded by mu
	walBuf     []byte        // frame scratch of logAndApply, guarded by mu
}

var _ store.Store = (*DB)(nil)

// New creates a store containing only the root directory. A durability
// tier attached via Config.Durable is formatted (Recover, not New,
// restores a previous epoch).
func New(clk *clock.Sim, cfg Config) *DB {
	if cfg.Durable != nil {
		cfg.Durable.reset()
	}
	db := newDB(clk, cfg)
	root := namespace.NewRoot()
	db.inodes[root.ID] = root
	db.markINode(root.ID)
	return db
}

// newDB builds an empty store shell (no root, no rows): shard service
// queues, lock manager, telemetry. New installs the root; Recover loads
// checkpoint rows and replays the WAL instead.
func newDB(clk *clock.Sim, cfg Config) *DB {
	if cfg.Durable != nil {
		// The media's layout wins: row→shard placement must match the
		// per-shard checkpoint stores.
		cfg.DataNodes = cfg.Durable.Shards()
	}
	db := &DB{
		cfg:      cfg,
		clk:      clk,
		inodes:   make(map[namespace.INodeID]*namespace.INode),
		children: make(map[namespace.INodeID]childList),
		kv:       make(map[string]map[string][]byte),
		locks:    newLockManager(clk, cfg.LockWaitTimeout),
		dur:      cfg.Durable,
	}
	db.nextID.Store(uint64(namespace.RootID))
	if db.dur != nil {
		db.dirty = make([]dirtyRows, cfg.DataNodes)
		for i := range db.dirty {
			db.dirty[i] = newDirtyRows()
		}
	}
	db.shards = make([]*clock.Queue, cfg.DataNodes)
	for i := range db.shards {
		db.shards[i] = clock.NewQueue(clk, cfg.WorkersPerNode)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	db.tel = newStoreTelemetry(reg)
	db.locks.waits = reg.Counter("lambdafs_ndb_lock_waits_total")
	registerShardGauges(reg, clk, db.shards)
	return db
}

// shardFor hashes a row key onto its owning data-node shard. This is the
// store's one placement rule: each row sits on its own key's shard (an
// INode on its ID's, a KV row on its table and key's), and a listing's
// children are served from the directory's shard, like HopsFS's
// partition-pruned scan of one parent's rows.
func (db *DB) shardFor(key rowKey) int {
	return int(key.hash() % uint32(len(db.shards)))
}

// NextID allocates a cluster-unique INode ID.
func (db *DB) NextID() namespace.INodeID {
	return namespace.INodeID(db.nextID.Add(1))
}

// Begin opens a transaction on behalf of owner.
func (db *DB) Begin(owner string) store.Tx {
	return db.BeginTraced(owner, nil)
}

// BeginTraced opens a transaction whose store accesses attach spans to tc.
// A nil tc is exactly Begin. It reuses a released transaction when there
// is one.
func (db *DB) BeginTraced(owner string, tc *trace.Ctx) store.Tx {
	var t *tx
	db.txMu.Lock()
	if n := len(db.txFree); n > 0 {
		t, db.txFree = db.txFree[n-1], db.txFree[:n-1]
	}
	db.txMu.Unlock()
	if t == nil {
		t = &tx{db: db}
	}
	t.lt.owner, t.tc = owner, tc
	return t
}

// Release implements store.Store: it ends st's transaction (Abort, when
// still open), empties it and parks it for BeginTraced. A parked
// transaction is the zero transaction of db — it holds no lock, no row, no
// hook and no trace context — but for the room it kept for a listing's
// children, emptied, when that is at most keptKids.
func (db *DB) Release(st store.Tx) {
	t := st.(*tx)
	t.Abort()
	kids := t.kids // its length is what a listing may have written
	if cap(kids) > keptKids {
		kids = nil
	}
	clear(kids)
	*t = tx{db: db, kids: kids[:0]}
	db.txMu.Lock()
	db.txFree = append(db.txFree, t)
	db.txMu.Unlock()
}

// ReleaseOwner force-releases all locks held by a crashed owner.
func (db *DB) ReleaseOwner(owner string) {
	db.locks.ReleaseOwner(owner)
}

// ResolvePath implements batched single-round-trip resolution: the whole
// component chain (the root and one row per component) is fetched as one
// multi-get billed to the path's shard (HopsFS's INode-hint-cache fast
// path). It counts one resolution hop per component.
func (db *DB) ResolvePath(path string) ([]*namespace.INode, error) {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return nil, err
	}
	comps := namespace.SplitPath(p)
	db.serviceRows(plainKey(p), len(comps)+1, nil)
	db.tel.reads.Inc()
	db.tel.resolveHops.Add(float64(max(len(comps), 1)))

	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.chainLocked(comps, nil)
}

// subtreeRows returns every INode row in the subtree rooted at root
// (inclusive) in BFS order, each node's children by ascending ID: callers
// cut the listing into batches whose latency is modelled, so the order is
// part of every subtree operation's virtual time. Charges nothing.
func (db *DB) subtreeRows(root namespace.INodeID) ([]*namespace.INode, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.inodes[root] == nil {
		return nil, namespace.ErrNotFound
	}
	var out []*namespace.INode
	queue := []namespace.INodeID{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := db.inodes[id]
		if n == nil {
			continue
		}
		out = append(out, n)
		first := len(queue)
		for _, c := range db.children[id] {
			for _, e := range c {
				queue = append(queue, e.Val)
			}
		}
		slices.Sort(queue[first:])
	}
	return out, nil
}

// ListSubtree returns the subtree rooted at root in BFS order, charging
// its rows and the probe past the last as one multi-get on one shard
// (HopsFS Phase-2 subtree walk).
func (db *DB) ListSubtree(root namespace.INodeID) ([]*namespace.INode, error) {
	out, err := db.subtreeRows(root)
	if err != nil {
		return nil, err
	}
	db.serviceRows(plainKey(fmt.Sprintf("subtree/%d", root)), len(out)+1, nil)
	db.tel.reads.Inc()
	return out, nil
}

// Preload bulk-inserts INodes directly, bypassing transactions, locks and
// the latency model. It exists for benchmark setup (pre-populating the
// namespace before measurement, as the artifact's setup scripts do) and
// must not run concurrently with serving. IDs must be unique; parents
// must precede children; no name may be taken in its directory already.
// Like store.Tx.PutINode it takes the nodes over: each pointer becomes the
// published row, so the caller must not write it again (namespace.INode).
// Each directory's child list is gathered and sorted once (linkAll), not
// grown by one sorted insert per row.
func (db *DB) Preload(nodes []*namespace.INode) {
	maxID := db.nextID.Load()
	for _, n := range nodes {
		maxID = max(maxID, uint64(n.ID))
	}
	db.mu.Lock()
	// The row map and the dirty sets grow once, not by doubling.
	db.inodes = grown(db.inodes, len(nodes))
	for s := range db.dirty {
		db.dirty[s].inodes = grown(db.dirty[s].inodes, len(nodes)/len(db.dirty))
	}
	for _, n := range nodes {
		db.markINode(n.ID)
		if old := db.inodes[n.ID]; old != nil {
			db.unlink(old)
		}
		db.inodes[n.ID] = n
	}
	db.linkAll(nodes)
	db.nextID.Store(maxID)
	db.mu.Unlock()
	// Preload bypasses the WAL; a preloaded namespace must survive
	// restart like committed state, so snapshot it immediately.
	if db.dur != nil {
		db.Checkpoint()
	}
}

// grown returns a copy of m with room for n more entries.
func grown[K comparable, V any](m map[K]V, n int) map[K]V {
	g := make(map[K]V, len(m)+n)
	maps.Copy(g, m)
	return g
}

// INodeCount reports the number of INodes (test/diagnostic hook).
func (db *DB) INodeCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.inodes)
}

// HeldLocks reports currently held row locks (test hook: must drain to 0).
func (db *DB) HeldLocks() int { return db.locks.heldLocks() }

// rowKey names a row for the lock table and for shard placement: an INode
// row (i/<id>), a child slot (c/<parent>/<name>), a KV row (k/<table>/<key>)
// or the plain string a serial scan bills its service to. It is a comparable
// value, so the hot path (one key per component per multi-get) builds no
// string. String is the form checkpoint rows and lock spans are named by, and
// hash is 32-bit FNV-1a over exactly those bytes: row→shard placement is part
// of the media's layout and of every committed virtual-time number.
type rowKey struct {
	kind  byte              // 'i', 'c', 'k'; 0 for a plain string
	id    namespace.INodeID // 'i': the row; 'c': the parent
	table string            // 'k': the table
	name  string            // 'c': the name; 'k': the key; 0: the string
}

func inodeKey(id namespace.INodeID) rowKey { return rowKey{kind: 'i', id: id} }
func childKey(parent namespace.INodeID, name string) rowKey {
	return rowKey{kind: 'c', id: parent, name: name}
}
func kvKey(table, key string) rowKey { return rowKey{kind: 'k', table: table, name: key} }
func plainKey(s string) rowKey       { return rowKey{name: s} }

// prefix appends everything of the string form before the table and name.
func (k rowKey) prefix(b []byte) []byte {
	switch k.kind {
	case 'i':
		return strconv.AppendUint(append(b, "i/"...), uint64(k.id), 10)
	case 'c':
		return append(strconv.AppendUint(append(b, "c/"...), uint64(k.id), 10), '/')
	case 'k':
		return append(b, "k/"...)
	}
	return b
}

func (k rowKey) String() string {
	var buf [24]byte // "c/" + 20 digits + "/"
	if k.kind == 'k' {
		return string(k.prefix(buf[:0])) + k.table + "/" + k.name
	}
	return string(k.prefix(buf[:0])) + k.name
}

func (k rowKey) hash() uint32 {
	var buf [24]byte
	h := fnv1a(2166136261, k.prefix(buf[:0]))
	if k.kind == 'k' {
		h = fnv1a(fnv1a(h, k.table), "/")
	}
	return fnv1a(h, k.name)
}

func fnv1a[T string | []byte](h uint32, s T) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
