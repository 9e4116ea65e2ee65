package ndb

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// tx is one ACID transaction. A transaction must be used from a single
// goroutine; writes are buffered and applied atomically at Commit under
// the store's structure lock, while row locks (strict 2PL) provide
// isolation against concurrent transactions. A released transaction is
// emptied and parked on its store's free list (DB.Release), and
// BeginTraced hands it out again.
type tx struct {
	db        *DB
	lt        lockTx // identity and holdings in the lock table
	done      bool
	exclusive bool       // asked for an exclusive lock: a write transaction
	lockedOut bool       // chainBuf backs a reply (chainStorage)
	tc        *trace.Ctx // nil when untraced

	rows   []rowWrite                // buffered row writes, one per row, in write order
	index  map[namespace.INodeID]int // each row's place in rows, once rows reaches indexFrom
	kvPuts map[kvRef][]byte
	kvDels map[kvRef]bool

	atCommit []func() // commit-point hooks, in registration order

	// Inline backing for the common transaction: a write's write set, and
	// the first reply's chains — a lock phase's (up to ten components
	// across a rename's two paths) or a resolved or listed path's (up to
	// eleven components). Anything larger spills to the heap.
	rowBuf   [4]rowWrite
	chainBuf [12]*namespace.INode

	// A listed directory's children (childrenOf): kidsBuf when they fit,
	// else kids, heap storage the transaction keeps across its releases up
	// to keptKids entries; kidsOut once a reply holds either.
	kidsBuf [16]*namespace.INode
	kids    []*namespace.INode
	kidsOut bool
}

// keptKids is the most children a released transaction keeps room for, so
// a parked one never pins a big directory's listing.
const keptKids = 1024

// rowWrite is one buffered row write: n, or nil for a delete of row id.
type rowWrite struct {
	id namespace.INodeID
	n  *namespace.INode
}

var _ store.Tx = (*tx)(nil)

// kvRef names one row of a KV table in the write buffer.
type kvRef struct{ table, key string }

func (t *tx) lock(key rowKey, mode store.LockMode) error {
	if mode == store.LockNone {
		return nil
	}
	if mode == store.LockExclusive {
		t.exclusive = true
	}
	// The span is opened before the acquire so a contended wait is timed
	// from its true start; an immediate grant cancels it (no span spam on
	// the uncontended fast path — with a nil trace context this is free,
	// and so is a wait: the key's string is built for a traced span only).
	sp := t.tc.Start(trace.KindStoreLock)
	wait, err := t.db.locks.Acquire(&t.lt, key, mode == store.LockExclusive)
	if wait > 0 {
		if sp != nil {
			sp.SetDetail(key.String())
		}
		sp.AddLockWait(wait)
		sp.End()
		t.db.tel.lockWaitSec.Add(wait.Seconds())
	} else {
		sp.Cancel()
	}
	if err != nil {
		t.db.tel.lockTimeouts.Inc()
	}
	return err
}

// GetINode fetches an INode by ID.
func (t *tx) GetINode(id namespace.INodeID, mode store.LockMode) (*namespace.INode, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	if err := t.lock(inodeKey(id), mode); err != nil {
		return nil, err
	}
	t.db.serviceRows(inodeKey(id), 1, t.tc)
	t.db.tel.reads.Inc()
	n := t.row(id)
	if n == nil {
		return nil, namespace.ErrNotFound
	}
	return n, nil
}

// bufferedChild looks for a buffered put matching (parent, name).
func (t *tx) bufferedChild(parent namespace.INodeID, name string) *namespace.INode {
	for _, w := range t.rows {
		if n := w.n; n != nil && n.ParentID == parent && n.Name == name {
			return n
		}
	}
	return nil
}

// indexFrom is the write-set size from which a transaction also indexes
// its rows by ID. A usual write scans a few rows; a subtree delete batch
// buffers up to 512, and scanning those once per row written cost such a
// batch 590 µs of host time against 380 µs with the index (2 vCPU).
const indexFrom = 32

// find returns the place of row id in the write set, or -1.
func (t *tx) find(id namespace.INodeID) int {
	if t.index != nil {
		if i, ok := t.index[id]; ok {
			return i
		}
		return -1
	}
	for i := range t.rows {
		if t.rows[i].id == id {
			return i
		}
	}
	return -1
}

// buffered returns this transaction's write of row id: ok, and nil for a
// delete, when it wrote the row.
func (t *tx) buffered(id namespace.INodeID) (n *namespace.INode, ok bool) {
	if i := t.find(id); i >= 0 {
		return t.rows[i].n, true
	}
	return nil, false
}

// row returns row id as this transaction sees it: its buffered write (nil
// for a buffered delete), else the committed row, nil when there is none.
// Either is handed out as it is: nothing the store hands out is written.
func (t *tx) row(id namespace.INodeID) *namespace.INode {
	if n, ok := t.buffered(id); ok {
		return n
	}
	t.db.mu.RLock()
	n := t.db.inodes[id]
	t.db.mu.RUnlock()
	return n
}

// childrenOf reads all direct children of dir, which the caller holds locked
// (read-committed, merged with this transaction's buffered writes,
// sorted by name), charging nothing: ListPathBatched's multi-get paid for
// the rows. The committed list is already in name order, so only buffered
// children of dir call for a sort. The children are the transaction's
// storage (kidsStorage).
func (t *tx) childrenOf(dir namespace.INodeID) []*namespace.INode {
	t.db.mu.RLock()
	kids := t.db.children[dir]
	out := t.kidsStorage(kids.Len() + len(t.rows))
	for _, c := range kids {
		for _, e := range c {
			if _, ok := t.buffered(e.Val); ok {
				continue // this transaction's version decides, below
			}
			if n := t.db.inodes[e.Val]; n != nil {
				out = append(out, n)
			}
		}
	}
	committed := len(out)
	for _, w := range t.rows {
		if w.n != nil && w.n.ParentID == dir {
			out = append(out, w.n)
		}
	}
	t.db.mu.RUnlock()
	if len(out) > committed {
		slices.SortFunc(out, func(a, b *namespace.INode) int { return cmp.Compare(a.Name, b.Name) })
	}
	return out
}

// kidsStorage returns room for n children, empty: the transaction's inline
// buffer when they fit, else its kept heap storage, grown when short; a new
// slice once a reply holds the transaction's, so no reply is overwritten by
// a later one. Either stays valid until the transaction is released.
func (t *tx) kidsStorage(n int) []*namespace.INode {
	switch {
	case t.kidsOut:
		return make([]*namespace.INode, 0, n)
	case n <= len(t.kidsBuf):
		t.kidsOut = true
		return t.kidsBuf[:0]
	case cap(t.kids) < n:
		t.kids = make([]*namespace.INode, n)
	}
	t.kidsOut = true
	t.kids = t.kids[:n] // Release clears what the reply may fill
	return t.kids[:0:n]
}

// slotHolder returns the version of row id whose (parent, name) slot a put
// or delete must lock besides its own: the transaction's buffered put, else
// the committed row (nil when there is none).
func (t *tx) slotHolder(id namespace.INodeID) *namespace.INode {
	if n, _ := t.buffered(id); n != nil {
		return n
	}
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.db.inodes[id]
}

// PutINode buffers an insert/update of n itself: the commit publishes this
// pointer, so from here on n is the store's (namespace.INode). The row and
// its (parent, name) slot are locked exclusively; on a move (parent or name
// change of an existing row), the old slot is locked too.
func (t *tx) PutINode(n *namespace.INode) error {
	if t.done {
		return store.ErrTxDone
	}
	if n == nil || n.ID == namespace.InvalidID {
		return namespace.ErrInvalidState
	}
	if err := t.lock(inodeKey(n.ID), store.LockExclusive); err != nil {
		return err
	}
	if err := t.lock(childKey(n.ParentID, n.Name), store.LockExclusive); err != nil {
		return err
	}
	// Lock the old slot when this put moves an existing row.
	if old := t.slotHolder(n.ID); old != nil && (old.ParentID != n.ParentID || old.Name != n.Name) {
		if err := t.lock(childKey(old.ParentID, old.Name), store.LockExclusive); err != nil {
			return err
		}
	}
	t.buffer(n.ID, n)
	return nil
}

// buffer records row id's write: n, or nil for a delete. A row written
// again keeps its place in the write order.
func (t *tx) buffer(id namespace.INodeID, n *namespace.INode) {
	if i := t.find(id); i >= 0 {
		t.rows[i].n = n
		return
	}
	if t.rows == nil {
		t.rows = t.rowBuf[:0]
	}
	t.rows = append(t.rows, rowWrite{id, n})
	switch {
	case t.index != nil:
		t.index[id] = len(t.rows) - 1
	case len(t.rows) == indexFrom:
		t.index = make(map[namespace.INodeID]int, 2*indexFrom)
		for i, w := range t.rows {
			t.index[w.id] = i
		}
	}
}

// DeleteINode buffers a row deletion.
func (t *tx) DeleteINode(id namespace.INodeID) error {
	if t.done {
		return store.ErrTxDone
	}
	if err := t.lock(inodeKey(id), store.LockExclusive); err != nil {
		return err
	}
	if cur := t.slotHolder(id); cur != nil {
		if err := t.lock(childKey(cur.ParentID, cur.Name), store.LockExclusive); err != nil {
			return err
		}
	}
	t.buffer(id, nil)
	return nil
}

// KVPut buffers a KV write (implicitly exclusive).
func (t *tx) KVPut(table, key string, val []byte) error {
	if t.done {
		return store.ErrTxDone
	}
	if err := t.lock(kvKey(table, key), store.LockExclusive); err != nil {
		return err
	}
	if t.kvPuts == nil {
		t.kvPuts = make(map[kvRef][]byte)
	}
	t.kvPuts[kvRef{table, key}] = append([]byte(nil), val...)
	delete(t.kvDels, kvRef{table, key})
	return nil
}

// KVDelete buffers a KV deletion.
func (t *tx) KVDelete(table, key string) error {
	if t.done {
		return store.ErrTxDone
	}
	if err := t.lock(kvKey(table, key), store.LockExclusive); err != nil {
		return err
	}
	if t.kvDels == nil {
		t.kvDels = make(map[kvRef]bool)
	}
	t.kvDels[kvRef{table, key}] = true
	delete(t.kvPuts, kvRef{table, key})
	return nil
}

// KVScan returns all committed keys with the given prefix, merged with
// this transaction's buffered writes (read-committed, no locks). Its
// charge is one multi-get on the prefix's shard: the matching rows and
// the probe row past the last.
func (t *tx) KVScan(table, prefix string) (map[string][]byte, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	out := make(map[string][]byte)
	t.db.mu.RLock()
	for k, v := range t.db.kv[table] {
		if strings.HasPrefix(k, prefix) {
			out[k] = append([]byte(nil), v...)
		}
	}
	t.db.mu.RUnlock()
	for ref, v := range t.kvPuts {
		if ref.table == table && strings.HasPrefix(ref.key, prefix) {
			out[ref.key] = append([]byte(nil), v...)
		}
	}
	for ref := range t.kvDels {
		if ref.table == table {
			delete(out, ref.key)
		}
	}
	t.db.serviceRows(kvKey(table, prefix), len(out)+1, t.tc)
	t.db.tel.reads.Inc()
	return out, nil
}

// writeCount returns the number of buffered row writes.
func (t *tx) writeCount() int {
	return len(t.rows) + len(t.kvPuts) + len(t.kvDels)
}

// countWrites counts each buffered row write on its key's shard into
// perShard, which the caller hands over zeroed, and returns it.
func (t *tx) countWrites(perShard []int) []int {
	for _, w := range t.rows {
		perShard[t.db.shardFor(inodeKey(w.id))]++
	}
	for ref := range t.kvPuts {
		perShard[t.db.shardFor(kvKey(ref.table, ref.key))]++
	}
	for ref := range t.kvDels {
		perShard[t.db.shardFor(kvKey(ref.table, ref.key))]++
	}
	return perShard
}

// AtCommitPoint implements store.Tx: fn runs inside a successful Commit,
// once the writes are applied and durable, while every lock is still held.
func (t *tx) AtCommitPoint(fn func()) {
	t.atCommit = append(t.atCommit, fn)
}

// Commit applies buffered writes atomically and releases all locks. Its
// charge is one store round: every shard serves the written rows it owns
// (reserveShards with WriteService) beside the round trip and, with a
// durability tier attached, the WAL fsync; the caller waits once, for the
// last of the three. The record is then appended before the locks
// release, so a committed transaction is on durable media before any
// conflicting transaction can observe it — which is what makes the global
// LSN order a valid serialization. The commit-point hooks run between the
// two: after the append, before the release.
func (t *tx) Commit() error {
	if t.done {
		return store.ErrTxDone
	}
	if h := t.db.cfg.OnCommit; h != nil {
		if err := h(t.lt.owner); err != nil {
			t.Abort()
			return err
		}
	}
	t.done = true
	writes := t.writeCount()
	walBytes := 0
	if writes > 0 {
		sp := t.tc.Start(trace.KindStoreCommit)
		if sp != nil {
			sp.SetDetail(fmt.Sprintf("writes=%d", writes))
		}
		sp.AddStoreHops(1)
		var fsync time.Duration
		if t.db.dur != nil {
			fsync = t.db.cfg.Durability.WALFsync
		}
		var counts [stackShards]int
		perShard := t.countWrites(t.db.shardCounts(counts[:]))
		until := t.db.reserveShards(perShard, t.db.cfg.WriteService, sp.Ctx())
		t.db.clk.Sleep(max(t.db.cfg.RTT, fsync, until))
		walBytes = t.logAndApply()
		sp.End()
	}
	for _, fn := range t.atCommit {
		fn()
	}
	t.db.locks.ReleaseAll(&t.lt)
	t.db.tel.commits.Inc()
	t.db.tel.writes.Add(float64(writes))
	if walBytes > 0 {
		t.db.tel.walAppends.Inc()
		t.db.tel.walBytes.Add(float64(walBytes))
	}
	if writes > 0 {
		t.db.maybeCheckpoint()
	}
	return nil
}

// logAndApply appends the transaction's WAL record (when a durability
// tier is attached) and installs the buffered writes, both under the
// structure lock: LSN assignment, log append, and apply are one atomic
// step, so a checkpoint round, which reads its dirty rows under the same
// lock, always reflects every LSN the media has. What is logged is what is applied —
// one record, one applyRecord, at commit as at replay. The record and the
// frame are the store's scratch, reused by every commit: appendFrame copies
// the frame into the log, and applyRecord keeps the rows, not the record.
// Returns the appended frame size (0 without durability).
func (t *tx) logAndApply() int {
	db := t.db
	db.mu.Lock()
	defer db.mu.Unlock()
	rec := &db.walRec
	*rec = walRecord{puts: rec.puts[:0], dels: rec.dels[:0], kvPuts: rec.kvPuts[:0], kvDels: rec.kvDels[:0]}
	for _, w := range t.rows {
		if w.n == nil {
			rec.dels = append(rec.dels, w.id)
		} else {
			rec.puts = append(rec.puts, w.n)
		}
	}
	for ref, v := range t.kvPuts {
		rec.kvPuts = append(rec.kvPuts, kvOp{table: ref.table, key: ref.key, val: v})
	}
	for ref := range t.kvDels {
		rec.kvDels = append(rec.kvDels, kvOp{table: ref.table, key: ref.key})
	}
	walBytes := 0
	if db.dur != nil {
		rec.lsn, rec.idHW = db.dur.LastLSN()+1, db.nextID.Load()
		db.walBuf = appendRecord(db.walBuf[:0], rec)
		frame := db.walBuf
		durable := len(frame)
		if h := db.cfg.OnWALAppend; h != nil {
			durable = h(db.dur.walShard(rec.lsn), rec.lsn, len(frame))
		}
		db.dur.appendFrame(rec.lsn, frame, durable)
		walBytes = len(frame)
	}
	db.applyRecord(rec)
	clear(rec.puts) // the scratch keeps no row alive
	clear(rec.kvPuts)
	return walBytes
}

// Abort discards buffered writes and releases locks; idempotent. Only a
// write transaction's abort is counted: a read-only one ending here has
// nothing to undo.
func (t *tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.db.locks.ReleaseAll(&t.lt)
	if t.exclusive {
		t.db.tel.aborts.Inc()
	}
}
