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
// Abort, or in Store.Release, which ends it and hands it back for reuse.
// Rows a transaction has locked are owned by that transaction
// until it ends; implementations enforce strict two-phase locking. The
// global lock-acquisition order is a raced write's result row first (its
// client's row in TableResults, one Tx.KVGet), then path ancestors, then
// child-key slot, then inode row; a write takes its whole path row set in
// that order with one Tx.LockPath or Tx.LockPaths call (a rename's two
// paths: sorted, each walked from the root down), so callers that lock
// nothing else before it inherit the order instead of maintaining it. Every trace-carrying method
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
	TableSubtreeOps = "subtree_ops" // active subtree operations (isolation)
	TableResults    = "results"     // each client's latest raced write and its reply
)

// LockedPath is one target path's rows as locked by Tx.LockPath or
// Tx.LockPaths.
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
// Nothing a read returns is ever written, under any lock mode: it is the
// transaction's view of the row — its own buffered write, or else the
// committed snapshot (namespace.INode), the pointer every other reader and
// cache holds. A writer builds the row's next version itself (Clone, edit,
// PutINode). LockPath and LockPaths read parent and Target exclusive,
// ancestors shared.
//
// Slices a method returns may be storage the transaction owns (its reply
// buffers). They stay valid after Commit or Abort, until the transaction
// is released (Store.Release): a transaction that is never released is
// never reused, and its storage stays valid for as long as it is read.
type Tx interface {
	// GetINode fetches an INode by ID.
	GetINode(id namespace.INodeID, lock LockMode) (*namespace.INode, error)
	// PutINode inserts or updates an INode (implicitly exclusive). The store
	// takes n over: Commit publishes this pointer as the row's new version,
	// so the caller, who built n (new, or a Clone of the row it read), must
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
	// writes lock through LockPath and LockPaths, which share its walk.
	// Partial chains are returned with namespace.ErrNotFound. The chain
	// slice may be the transaction's own storage: a caller that releases the
	// transaction copies what it keeps first.
	ResolvePathBatched(path string, ancestors, terminal LockMode) ([]*namespace.INode, error)

	// ListPathBatched is a listing miss in one store round trip: path's
	// chain and, when it names a directory, the directory's children, all
	// fetched by the one multi-get ResolvePathBatched would issue for the
	// chain alone — the children's rows ride in it on the directory's own
	// shard, so the call counts one read, one resolution hop and one batched
	// resolve however many children there are. Every row of the chain is
	// locked with mode as ResolvePathBatched(path, mode, mode) locks it, and
	// the children are read under the directory's lock: LockShared is the
	// listing fill's staleness guard, LockNone the pass-through ls. The
	// children come back in name order, this transaction's buffered writes
	// merged in — a buffered create in its sorted place, a buffered delete
	// or move out gone — so a caller never sorts them. For a file children
	// is nil. Partial chains are returned with namespace.ErrNotFound. The
	// chain and the children may be the transaction's own storage, as
	// ResolvePathBatched's chain is.
	ListPathBatched(path string, mode LockMode) (chain, children []*namespace.INode, err error)

	// LockPath is a write's whole lock phase in one store round trip: it
	// resolves and locks the row set of the canonical target path (a
	// create, delete or mkdirs) under a single batched multi-get. Ancestors
	// are locked shared, the parent directory exclusive (slot, then row) and
	// the terminal's (parent, name) slot plus its row, when present,
	// exclusive, from the root down. A missing terminal is not an error
	// (LockedPath.Target is nil and stays absent until the transaction
	// ends); a missing ancestor or parent fails the call with
	// namespace.ErrNotFound, and LockedPath.Chain holds the rows that do
	// exist, root down — a chain shorter than the parent's depth says where
	// the path first goes missing. The root itself is not a valid target.
	// The chain may be the transaction's own storage.
	LockPath(path string) (LockedPath, error)
	// LockPaths is a rename's lock phase: LockPath's row set for src and for
	// dest under ONE multi-get over the union of their rows. A row the two
	// paths share is taken once, on its most demanding terms (strongest
	// mode, slot first) — never upgraded — and both chains hold the same
	// pointer for it, so a writer builds its next version once. Rows are
	// acquired in one global order: the paths sorted by
	// component, each walked from the root down. A missing ancestor fails
	// the call as it fails LockPath, with the rows that exist in the failing
	// path's LockedPath.
	LockPaths(src, dest string) (srcRows, destRows LockedPath, err error)

	// GetINodesBatched fetches the given INodes as one batched per-shard
	// multi-get, locking each row with lock in the order given (callers
	// must pass a deterministic, protocol-consistent order — e.g. the BFS
	// order of a quiesced subtree). Missing rows are skipped, so the
	// result may be shorter than ids.
	GetINodesBatched(ids []namespace.INodeID, lock LockMode) ([]*namespace.INode, error)

	// KVGet reads one KV row under lock: a one-row multi-get on the key's
	// shard, one store round. It sees this transaction's own buffered
	// writes; an absent row is namespace.ErrNotFound. The value returned is
	// never written, by the caller or the store.
	KVGet(table, key string, lock LockMode) ([]byte, error)
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
	// Release ends tx — it aborts tx if it is still open — and hands it
	// back to the store, which may return it from a later BeginTraced.
	// It is the caller's last touch of tx and of every slice tx returned;
	// rows, which the store publishes or shares, are not the transaction's
	// and stay valid. Call it once per transaction, or never: a
	// transaction that is never released is never reused, so it keeps
	// answering ErrTxDone once it has ended.
	Release(tx Tx)

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
// aborts and is returned. fn must be idempotent, and must not keep tx or a
// slice tx returned past its attempt: each attempt's transaction is
// released once it has committed or failed.
func RunTx(s interface {
	BeginTraced(owner string, tc *trace.Ctx) Tx
	Release(tx Tx)
}, owner string, tc *trace.Ctx, fn func(Tx) error) error {
	const maxAttempts = 8
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		tx := s.BeginTraced(owner, tc)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		s.Release(tx) // aborts a failed attempt
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrLockTimeout) {
			return err
		}
		lastErr = err
	}
	return lastErr
}
