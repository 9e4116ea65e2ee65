// Package store defines the Data Access Layer (DAL) between metadata
// servers and the persistent metadata store, mirroring HopsFS's pluggable
// DAL (§2): a transactional row store holding the INode table plus generic
// key-value tables used for DataNode reports, coordination state, and the
// subtree-operation registry.
//
// λFS and all baselines speak this interface; internal/ndb provides the
// MySQL-Cluster-NDB-like implementation with row locks, ACID transactions,
// and an explicit capacity model.
//
// # Concurrency and ownership
//
// A Store must be safe for concurrent use; a Tx belongs to the single
// goroutine that begins it and must end in exactly one Commit or
// Abort. Rows a transaction has locked are owned by that transaction
// until it ends; implementations enforce strict two-phase locking. The
// global lock-acquisition order is path ancestors first, then child-key
// slot, then inode row; a write takes its whole row set in that order with
// one Tx.LockPaths call (several paths: sorted, each walked from the root
// down), so callers that lock nothing else before it inherit the order
// instead of maintaining it. Every trace-carrying method
// takes a *trace.Ctx and must treat nil exactly like an untraced call, so
// callers pass their context through unconditionally.
package store

import (
	"errors"

	"lambdafs/internal/namespace"
	"lambdafs/internal/trace"
)

// LockMode selects row locking for reads inside a transaction.
type LockMode int

// Lock modes.
const (
	LockNone      LockMode = iota // read committed, no lock retained
	LockShared                    // shared (read) lock held to commit
	LockExclusive                 // exclusive (write) lock held to commit
)

func (m LockMode) String() string {
	switch m {
	case LockNone:
		return "none"
	case LockShared:
		return "shared"
	case LockExclusive:
		return "exclusive"
	}
	return "invalid"
}

// Store-level errors.
var (
	// ErrLockTimeout reports a probable deadlock or a lock held by a
	// crashed peer; transactions should abort and retry.
	ErrLockTimeout = errors.New("store: lock wait timeout")
	// ErrTxDone reports use of a committed or aborted transaction.
	ErrTxDone = errors.New("store: transaction already finished")
)

// Well-known KV table names.
const (
	TableDataNodes  = "datanodes"   // DataNode heartbeats and block reports
	TableCoord      = "coordinator" // NDB-backed Coordinator state
	TableSubtreeOps = "subtree_ops" // active subtree operations (isolation)
)

// LockedPath is one target path's rows as locked by Tx.LockPaths.
type LockedPath struct {
	// Chain is the path's directory chain from the root down to the
	// parent: ancestors locked shared, the parent (last) exclusive. The
	// parent is whatever row holds that name — callers check IsDir.
	Chain []*namespace.INode
	// Target is the path's own row, locked exclusively, or nil when no
	// such row exists; its (parent, name) slot is locked either way.
	Target *namespace.INode
}

// Tx is one ACID transaction. All row reads/writes inside a transaction
// see their own writes; locks acquired with LockShared/LockExclusive are
// held until Commit or Abort (strict two-phase locking).
//
// Who may write an INode a read returns follows from its lock mode:
// exclusive ⇒ a private copy, the caller's to change and PutINode;
// otherwise the shared snapshot of the row (namespace.INode), read-only, the
// pointer every other reader and cache holds. LockPaths reads parent and
// Target exclusive, ancestors shared. A private copy shares the row's block
// list, which no one writes in place.
type Tx interface {
	// GetINode fetches an INode by ID.
	GetINode(id namespace.INodeID, lock LockMode) (*namespace.INode, error)
	// PutINode inserts or updates an INode (implicitly exclusive). The store
	// takes n over: Commit publishes this pointer as the row's new version,
	// so the caller — who built n, or was handed it as a private copy — must
	// not write it again (namespace.INode), not even before Commit.
	PutINode(n *namespace.INode) error
	// DeleteINode removes an INode by ID (implicitly exclusive).
	DeleteINode(id namespace.INodeID) error

	// ResolvePathBatched resolves path as one batched per-shard multi-get
	// (MySQL Cluster's batched PK reads): every shard owning a row of the
	// chain serves its share concurrently, so the charge is one shared
	// round trip plus the max — not the sum — of the per-shard service
	// times, and the whole chain counts as a single dependent resolution
	// hop. Ancestor rows are locked with ancestors; the terminal
	// component's (parent, name) slot and row are locked with terminal.
	// The read-side cache fills (read, stat) call it shared/shared
	// (Algorithm 1's staleness guard: a concurrent writer's exclusive locks
	// serialize against the fill); ls resolves through ListPathBatched and
	// writes lock through LockPaths, which share its walk. Partial chains
	// are returned with namespace.ErrNotFound. The chain slice may be the
	// transaction's own storage; it stays valid after Commit or Abort,
	// because a Tx is never reused, so a caller may read it after the
	// transaction ends (core's read and stat do, past a deferred Abort).
	ResolvePathBatched(path string, ancestors, terminal LockMode) ([]*namespace.INode, error)

	// ListPathBatched is a listing miss in one store round trip: path's
	// chain and, when it names a directory, the directory's children, all
	// fetched by the one multi-get ResolvePathBatched would issue for the
	// chain alone — the children's rows ride in it on the directory's own
	// shard, so the call counts one read, one resolution hop and one batched
	// resolve however many children there are. Every row of the chain is
	// locked with mode as ResolvePathBatched(path, mode, mode) locks it, and
	// the children are read under the directory's lock (merged with this
	// transaction's buffered writes, sorted by name): LockShared is the
	// listing fill's staleness guard, LockNone the pass-through ls. For a
	// file children is nil. Partial chains are returned with
	// namespace.ErrNotFound. Both slices stay valid after the transaction
	// ends, as ResolvePathBatched's chain does.
	ListPathBatched(path string, mode LockMode) (chain, children []*namespace.INode, err error)

	// LockPaths is a write's whole lock phase in one store round trip: it
	// resolves and locks the row set of the given canonical target paths
	// (one for create/delete/mkdirs, two for mv) under a single
	// batched multi-get over the union of their rows. Per path, ancestors
	// are locked shared, the parent directory exclusive (slot, then row)
	// and the terminal's (parent, name) slot plus its row, when present,
	// exclusive. A row two paths share is taken once, on its most
	// demanding terms (strongest mode, slot first) — never upgraded — and
	// rows are acquired in one global order: paths sorted by component,
	// each walked from the root down. A missing terminal is not an error
	// (LockedPath.Target is nil and stays absent until the transaction
	// ends); a missing ancestor or parent fails the call with
	// namespace.ErrNotFound, and the failing path's LockedPath.Chain holds
	// the rows that do exist, root down — a chain shorter than the parent's
	// depth says where the path first goes missing. The root itself is not
	// a valid target. The reply and its chains may be storage the
	// transaction owns: they stay valid until Commit or Abort, and no
	// longer.
	LockPaths(paths ...string) ([]LockedPath, error)

	// GetINodesBatched fetches the given INodes as one batched per-shard
	// multi-get, locking each row with lock in the order given (callers
	// must pass a deterministic, protocol-consistent order — e.g. the BFS
	// order of a quiesced subtree). Missing rows are skipped, so the
	// result may be shorter than ids.
	GetINodesBatched(ids []namespace.INodeID, lock LockMode) ([]*namespace.INode, error)

	// KVPut/KVDelete/KVScan access a generic KV table.
	KVPut(table, key string, val []byte) error
	KVDelete(table, key string) error
	KVScan(table, prefix string) (map[string][]byte, error)

	// AtCommitPoint registers fn to run at this transaction's commit point:
	// inside a successful Commit, after the writes are applied and durable
	// and before any lock is released — the one instant at which the caller
	// still owns every row it wrote and the store already answers with them.
	// Hooks run in registration order on the committing goroutine; none runs
	// when the transaction aborts or its commit fails. fn must not use the
	// transaction.
	AtCommitPoint(fn func())
	// Commit atomically applies the transaction's writes and releases
	// locks.
	Commit() error
	// Abort discards writes and releases locks. Safe to call after
	// Commit (no-op).
	Abort()
}

// Store is the persistent metadata store.
type Store interface {
	// BeginTraced opens a transaction on behalf of owner (used for crash
	// cleanup: locks held by a declared-dead owner can be broken). Spans
	// for every store access inside the transaction (round trips,
	// per-shard queueing, service time) attach to tc.
	BeginTraced(owner string, tc *trace.Ctx) Tx

	// ResolvePathBatched returns the INode chain from the root to the
	// final component of path (read-committed, no locks), fetched as one
	// per-shard multi-get: one shared round trip, per-shard service in
	// parallel, one resolution hop. If some prefix resolves but a later
	// component is missing, the partial chain is returned along with
	// namespace.ErrNotFound.
	ResolvePathBatched(path string, tc *trace.Ctx) ([]*namespace.INode, error)

	// ListSubtreeBatched returns every INode in the subtree rooted at
	// root (inclusive), in BFS order, with the walk's row reads
	// partitioned over the shards and served concurrently.
	ListSubtreeBatched(root namespace.INodeID, tc *trace.Ctx) ([]*namespace.INode, error)

	// NextID allocates a cluster-unique INode ID.
	NextID() namespace.INodeID

	// ReleaseOwner force-releases all locks held by a crashed owner
	// (invoked by the Coordinator's failure detector, §3.6).
	ReleaseOwner(owner string)
}

// RunTx runs fn inside a transaction traced under tc, with automatic retry
// on lock timeouts (the standard DAL usage pattern). Any other error
// aborts and is returned. fn must be idempotent.
func RunTx(s interface {
	BeginTraced(owner string, tc *trace.Ctx) Tx
}, owner string, tc *trace.Ctx, fn func(Tx) error) error {
	const maxAttempts = 8
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		tx := s.BeginTraced(owner, tc)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			return nil
		}
		tx.Abort()
		if !errors.Is(err, ErrLockTimeout) {
			return err
		}
		lastErr = err
	}
	return lastErr
}
