package ndb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// tx is one ACID transaction. A transaction must be used from a single
// goroutine; writes are buffered and applied atomically at Commit under
// the store's structure lock, while row locks (strict 2PL) provide
// isolation against concurrent transactions.
type tx struct {
	db    *DB
	key   string
	owner string
	done  bool
	tc    *trace.Ctx // nil when untraced

	putINodes map[namespace.INodeID]*namespace.INode
	delINodes map[namespace.INodeID]bool
	kvPuts    map[string]map[string][]byte
	kvDels    map[string]map[string]bool

	atCommit []func() // commit-point hooks, in registration order
}

var _ store.Tx = (*tx)(nil)

func (t *tx) lock(key string, mode store.LockMode) error {
	if mode == store.LockNone {
		return nil
	}
	// The span is opened before the acquire so a contended wait is timed
	// from its true start; an immediate grant cancels it (no span spam on
	// the uncontended fast path — with a nil trace context this is free).
	sp := t.tc.Start(trace.KindStoreLock)
	wait, err := t.db.locks.Acquire(t.key, key, mode == store.LockExclusive)
	if wait > 0 {
		sp.SetDetail(key)
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
	t.db.serviceT(inodeKey(id), t.db.cfg.ReadService, t.tc,
		trace.Resources{StoreHops: 1, Allocs: 1})
	t.db.tel.reads.Inc()
	if t.delINodes[id] {
		return nil, namespace.ErrNotFound
	}
	if n, ok := t.putINodes[id]; ok {
		return n.Clone(), nil
	}
	t.db.mu.RLock()
	n := t.db.inodes[id]
	t.db.mu.RUnlock()
	if n == nil {
		return nil, namespace.ErrNotFound
	}
	return n.Clone(), nil
}

// bufferedChild looks for a buffered put matching (parent, name).
func (t *tx) bufferedChild(parent namespace.INodeID, name string) *namespace.INode {
	for _, n := range t.putINodes {
		if n.ParentID == parent && n.Name == name && !t.delINodes[n.ID] {
			return n
		}
	}
	return nil
}

// GetChild fetches the INode named name inside parent for one serial
// read charge. With a lock mode, both the (parent, name) slot and the
// child row (if present) are locked. Not part of store.Tx: writes lock
// through LockPaths; oracles and tests look rows up by name with it.
func (t *tx) GetChild(parent namespace.INodeID, name string, mode store.LockMode) (*namespace.INode, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	t.db.serviceT(childKey(parent, name), t.db.cfg.ReadService, t.tc,
		trace.Resources{StoreHops: 1, Allocs: 1})
	t.db.tel.reads.Inc()
	return t.lockChild(parent, name, mode, true)
}

// readINode reads a row through the transaction's write buffer.
func (t *tx) readINode(id namespace.INodeID) *namespace.INode {
	if t.delINodes[id] {
		return nil
	}
	if n, ok := t.putINodes[id]; ok {
		return n.Clone()
	}
	t.db.mu.RLock()
	n := t.db.inodes[id]
	t.db.mu.RUnlock()
	return n.Clone()
}

// childrenOf reads all direct children of dir (read-committed, merged with
// this transaction's buffered writes, sorted by name), charging nothing:
// ListPathBatched's multi-get paid for the rows.
func (t *tx) childrenOf(dir namespace.INodeID) []*namespace.INode {
	t.db.mu.RLock()
	kids := t.db.children[dir]
	out := make([]*namespace.INode, 0, len(kids))
	for _, id := range kids {
		if t.delINodes[id] {
			continue
		}
		if buf, ok := t.putINodes[id]; ok {
			if buf.ParentID == dir {
				out = append(out, buf.Clone())
			}
			continue
		}
		if n := t.db.inodes[id]; n != nil {
			out = append(out, n.Clone())
		}
	}
	for _, n := range t.putINodes {
		if n.ParentID == dir && !t.delINodes[n.ID] {
			if _, committed := kids[n.Name]; !committed {
				out = append(out, n.Clone())
			}
		}
	}
	t.db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PutINode buffers an insert/update. The row and its (parent, name) slot
// are locked exclusively; on a move (parent or name change of an existing
// row), the old slot is locked too.
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
	old := t.putINodes[n.ID]
	if old == nil {
		t.db.mu.RLock()
		old = t.db.inodes[n.ID]
		t.db.mu.RUnlock()
	}
	if old != nil && (old.ParentID != n.ParentID || old.Name != n.Name) {
		if err := t.lock(childKey(old.ParentID, old.Name), store.LockExclusive); err != nil {
			return err
		}
	}
	if t.putINodes == nil {
		t.putINodes = make(map[namespace.INodeID]*namespace.INode)
	}
	t.putINodes[n.ID] = n.Clone()
	delete(t.delINodes, n.ID)
	return nil
}

// DeleteINode buffers a row deletion.
func (t *tx) DeleteINode(id namespace.INodeID) error {
	if t.done {
		return store.ErrTxDone
	}
	if err := t.lock(inodeKey(id), store.LockExclusive); err != nil {
		return err
	}
	cur := t.putINodes[id]
	if cur == nil {
		t.db.mu.RLock()
		cur = t.db.inodes[id]
		t.db.mu.RUnlock()
	}
	if cur != nil {
		if err := t.lock(childKey(cur.ParentID, cur.Name), store.LockExclusive); err != nil {
			return err
		}
	}
	if t.delINodes == nil {
		t.delINodes = make(map[namespace.INodeID]bool)
	}
	t.delINodes[id] = true
	delete(t.putINodes, id)
	return nil
}

// KVGet reads one key of a KV table.
func (t *tx) KVGet(table, key string, mode store.LockMode) ([]byte, bool, error) {
	if t.done {
		return nil, false, store.ErrTxDone
	}
	if err := t.lock(kvKey(table, key), mode); err != nil {
		return nil, false, err
	}
	t.db.serviceT(kvKey(table, key), t.db.cfg.ReadService, t.tc,
		trace.Resources{StoreHops: 1, Allocs: 1})
	t.db.tel.reads.Inc()
	if t.kvDels[table][key] {
		return nil, false, nil
	}
	if v, ok := t.kvPuts[table][key]; ok {
		return append([]byte(nil), v...), true, nil
	}
	t.db.mu.RLock()
	v, ok := t.db.kv[table][key]
	t.db.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
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
		t.kvPuts = make(map[string]map[string][]byte)
	}
	if t.kvPuts[table] == nil {
		t.kvPuts[table] = make(map[string][]byte)
	}
	t.kvPuts[table][key] = append([]byte(nil), val...)
	if t.kvDels[table] != nil {
		delete(t.kvDels[table], key)
	}
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
		t.kvDels = make(map[string]map[string]bool)
	}
	if t.kvDels[table] == nil {
		t.kvDels[table] = make(map[string]bool)
	}
	t.kvDels[table][key] = true
	if t.kvPuts[table] != nil {
		delete(t.kvPuts[table], key)
	}
	return nil
}

// KVScan returns all committed keys with the given prefix, merged with
// this transaction's buffered writes (read-committed, no locks).
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
	for k, v := range t.kvPuts[table] {
		if strings.HasPrefix(k, prefix) {
			out[k] = append([]byte(nil), v...)
		}
	}
	for k := range t.kvDels[table] {
		delete(out, k)
	}
	batches := 1 + len(out)/t.db.cfg.BatchRows
	t.db.serviceT(kvKey(table, prefix), time.Duration(batches)*t.db.cfg.ReadService, t.tc,
		trace.Resources{StoreHops: 1, Allocs: uint64(len(out))})
	t.db.tel.reads.Inc()
	return out, nil
}

// writeCount returns the number of buffered row writes.
func (t *tx) writeCount() int {
	n := len(t.putINodes) + len(t.delINodes)
	for _, m := range t.kvPuts {
		n += len(m)
	}
	for _, m := range t.kvDels {
		n += len(m)
	}
	return n
}

// AtCommitPoint implements store.Tx: fn runs inside a successful Commit,
// once the writes are applied and durable, while every lock is still held.
func (t *tx) AtCommitPoint(fn func()) {
	t.atCommit = append(t.atCommit, fn)
}

// Commit applies buffered writes atomically, charges write service time
// across the shards in parallel, and releases all locks. With a
// durability tier attached, the WAL record is appended (and its fsync
// charged) before the locks release, so a committed transaction is on
// durable media before any conflicting transaction can observe it —
// which is what makes the global LSN order a valid serialization. The
// commit-point hooks run between the two: after the fsync, before the
// release.
func (t *tx) Commit() error {
	if t.done {
		return store.ErrTxDone
	}
	if h := t.db.cfg.OnCommit; h != nil {
		if err := h(t.owner); err != nil {
			t.Abort()
			return err
		}
	}
	t.done = true
	writes := t.writeCount()
	walBytes := 0
	if writes > 0 {
		sp := t.tc.Start(trace.KindStoreCommit)
		sp.SetDetail(fmt.Sprintf("writes=%d", writes))
		sp.AddRes(trace.Resources{StoreHops: 1, Allocs: uint64(writes)})
		t.chargeCommit(writes)
		walBytes = t.logAndApply()
		if walBytes > 0 {
			if d := t.db.cfg.Durability.WALFsync; d > 0 {
				t.db.clk.Sleep(d)
			}
		}
		sp.End()
	}
	for _, fn := range t.atCommit {
		fn()
	}
	t.db.locks.ReleaseAll(t.key)
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

// chargeCommit spreads the write service cost over the shards in
// parallel, approximating NDB's distributed commit: total work is
// writes × WriteService, executed by up to DataNodes shards concurrently.
// A single-row (or single-shard) commit is a round trip and then one
// service slot; a multi-shard commit reserves every shard's share at once
// and the round trip overlaps the service, so the caller waits for
// whichever ends last.
func (t *tx) chargeCommit(writes int) {
	db := t.db
	shards := len(db.shards)
	if writes <= 1 || shards == 1 {
		db.clk.Sleep(db.cfg.RTT)
		db.shards[0].Acquire(time.Duration(writes) * db.cfg.WriteService)
		return
	}
	perShard := (writes + shards - 1) / shards
	now := db.clk.Now()
	until := db.cfg.RTT
	for i := 0; i < shards && writes > 0; i++ {
		n := min(perShard, writes)
		writes -= n
		wait, dur := db.shards[i].Reserve(now, time.Duration(n)*db.cfg.WriteService)
		until = max(until, wait+dur)
	}
	db.clk.Sleep(until)
}

// logAndApply appends the transaction's WAL record (when a durability
// tier is attached) and installs the buffered writes, both under the
// structure lock: LSN assignment, log append, and apply are one atomic
// step, so a checkpoint snapshot taken under the read lock always
// reflects every LSN the media has. Returns the appended frame size
// (0 without durability).
func (t *tx) logAndApply() int {
	db := t.db
	db.mu.Lock()
	defer db.mu.Unlock()
	walBytes := 0
	if db.dur != nil {
		lsn := db.dur.LastLSN() + 1
		rec := &walRecord{lsn: lsn, idHW: db.nextID.Load()}
		for id, n := range t.putINodes {
			if t.delINodes[id] {
				continue
			}
			rec.puts = append(rec.puts, n)
		}
		for id := range t.delINodes {
			rec.dels = append(rec.dels, id)
		}
		for table, m := range t.kvPuts {
			for k, v := range m {
				rec.kvPuts = append(rec.kvPuts, kvOp{table: table, key: k, val: v})
			}
		}
		for table, m := range t.kvDels {
			for k := range m {
				rec.kvDels = append(rec.kvDels, kvOp{table: table, key: k})
			}
		}
		frame := encodeFrame(encodeRecord(rec))
		durable := len(frame)
		if h := db.cfg.OnWALAppend; h != nil {
			durable = h(db.dur.walShard(lsn), lsn, len(frame))
		}
		db.dur.appendFrame(lsn, frame, durable)
		walBytes = len(frame)
	}
	t.applyLocked()
	return walBytes
}

// applyLocked installs the buffered writes; caller holds db.mu.
func (t *tx) applyLocked() {
	db := t.db
	for id, n := range t.putINodes {
		if t.delINodes[id] {
			continue
		}
		if old := db.inodes[id]; old != nil {
			if kids := db.children[old.ParentID]; kids != nil && kids[old.Name] == id {
				delete(kids, old.Name)
			}
		}
		db.inodes[id] = n.Clone()
		if db.children[n.ParentID] == nil {
			db.children[n.ParentID] = make(map[string]namespace.INodeID)
		}
		db.children[n.ParentID][n.Name] = id
		if n.IsDir && db.children[id] == nil {
			db.children[id] = make(map[string]namespace.INodeID)
		}
	}
	for id := range t.delINodes {
		if old := db.inodes[id]; old != nil {
			if kids := db.children[old.ParentID]; kids != nil && kids[old.Name] == id {
				delete(kids, old.Name)
			}
			delete(db.inodes, id)
			delete(db.children, id)
		}
	}
	for table, m := range t.kvPuts {
		if db.kv[table] == nil {
			db.kv[table] = make(map[string][]byte)
		}
		for k, v := range m {
			db.kv[table][k] = v
		}
	}
	for table, m := range t.kvDels {
		if db.kv[table] == nil {
			continue
		}
		for k := range m {
			delete(db.kv[table], k)
		}
	}
}

// Abort discards buffered writes and releases locks; idempotent.
func (t *tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.db.locks.ReleaseAll(t.key)
	t.db.tel.aborts.Inc()
}
