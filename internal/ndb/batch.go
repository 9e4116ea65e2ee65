package ndb

import (
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// This file implements the store's batched multi-get path: one shared
// network round trip carrying primary-key reads for many rows at once,
// with each data-node shard serving its share of the rows concurrently
// (MySQL Cluster's batched PK reads, which λFS's single-round-trip path
// resolution relies on). The caller's wait is the max of the per-shard
// service times, not the sum — the serial serviceT loop shape these
// helpers replace.

// serviceMultiT charges read service for one batched multi-get covering
// the given row keys: a single RTT, then each shard owning any of the
// rows serves ceil(rows/BatchRows) read batches, all shards in parallel.
// With a trace context, the round trip and each shard's queue/service
// phases become spans exactly as in serviceT. Resource attribution
// mirrors the execution shape: the single shared round trip bills one
// dependent store round, and each shard's service span bills the rows it
// materializes — the inverse of the serial shape, where the wire exchange
// carries everything. Safe for concurrent use; blocks until every shard
// has served its share.
func (db *DB) serviceMultiT(keys []string, tc *trace.Ctx) {
	if len(keys) == 0 {
		return
	}
	perShard := make([]int, len(db.shards))
	for _, k := range keys {
		perShard[db.shardFor(k)]++
	}
	if db.cfg.RTT > 0 {
		sp := tc.Start(trace.KindStoreRTT)
		sp.AddStoreHops(1)
		db.clk.Sleep(db.cfg.RTT)
		sp.End()
	}
	done := make(chan struct{}, len(db.shards))
	launched := 0
	for idx, rows := range perShard {
		if rows == 0 {
			continue
		}
		batches := (rows + db.cfg.BatchRows - 1) / db.cfg.BatchRows
		dur := time.Duration(batches) * db.cfg.ReadService
		if db.cfg.OnShardService != nil {
			// Injected stalls delay the batch no matter how cheap its
			// nominal service is (same rule as serviceT).
			dur += db.cfg.OnShardService(idx)
		}
		if dur <= 0 {
			continue
		}
		idx, sh := idx, db.shards[idx]
		launched++
		clock.Go(db.clk, func() {
			tk := task{dur: dur, done: make(chan struct{})}
			if tc == nil {
				clock.Idle(db.clk, func() {
					sh.tasks <- tk
					<-tk.done
				})
				done <- struct{}{}
				return
			}
			tk.started = make(chan struct{}, 1)
			qsp := tc.Start(trace.KindStoreQueue)
			qsp.SetShard(idx)
			clock.Idle(db.clk, func() {
				sh.tasks <- tk
				<-tk.started
			})
			qsp.End()
			ssp := tc.Start(trace.KindStoreService)
			ssp.SetShard(idx)
			ssp.AddAllocs(uint64(rows))
			clock.Idle(db.clk, func() { <-tk.done })
			ssp.End()
			done <- struct{}{}
		})
	}
	clock.Idle(db.clk, func() {
		for i := 0; i < launched; i++ {
			<-done
		}
	})
}

// ResolvePathBatched implements store.Store: the whole chain fetched as
// one per-shard multi-get (read-committed, no locks, one resolution hop).
//
//vet:hotpath
func (db *DB) ResolvePathBatched(path string, tc *trace.Ctx) ([]*namespace.INode, error) {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return nil, err
	}
	comps := namespace.SplitPath(p)
	db.mu.RLock()
	chain := make([]*namespace.INode, 0, len(comps)+1)
	keys := make([]string, 0, len(comps)+1)
	keys = append(keys, inodeKey(namespace.RootID))
	cur := db.inodes[namespace.RootID]
	chain = append(chain, cur.Clone())
	missing := false
	for _, c := range comps {
		id, ok := db.children[cur.ID][c]
		if !ok {
			// The multi-get still probes the missing (parent, name) slot.
			keys = append(keys, childKey(cur.ID, c))
			missing = true
			break
		}
		cur = db.inodes[id]
		if cur == nil {
			missing = true
			break
		}
		keys = append(keys, inodeKey(id))
		chain = append(chain, cur.Clone())
	}
	db.mu.RUnlock()
	db.serviceMultiT(keys, tc)
	db.bumpStat(func(s *Stats) {
		s.Reads++
		s.BatchedResolves++
		s.ResolveHops++
	})
	if missing {
		return chain, namespace.ErrNotFound
	}
	return chain, nil
}

// ListSubtreeBatched implements store.Store: the subtree walk's
// row reads are partitioned over the shards owning them and served
// concurrently instead of as one serial batch chain.
func (db *DB) ListSubtreeBatched(root namespace.INodeID, tc *trace.Ctx) ([]*namespace.INode, error) {
	out, err := db.subtreeRows(root)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(out))
	for i, n := range out {
		keys[i] = inodeKey(n.ID)
	}
	db.serviceMultiT(keys, tc)
	db.bumpStat(func(s *Stats) { s.Reads++ })
	return out, nil
}

// ResolvePathBatched implements the transactional batched resolution
// (store.Tx): one per-shard multi-get charge for the whole chain, then
// the same lock-and-reread walk as ResolvePath — ancestors locked with
// ancestors, the terminal component's (parent, name) slot and row locked
// with terminal (GetChild's order, so write paths that collapse
// resolve+lock-parent into this call keep deadlock parity with serial
// resolvers).
//
//vet:hotpath
func (t *tx) ResolvePathBatched(path string, ancestors, terminal store.LockMode) ([]*namespace.INode, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	p, err := namespace.CleanPath(path)
	if err != nil {
		return nil, err
	}
	comps := namespace.SplitPath(p)

	// Peek the chain's row IDs under the structure lock (uncharged) so the
	// multi-get knows which shards it touches; the locked walk below
	// revalidates every row, exactly like ResolvePath's resolveStep.
	keys := make([]string, 0, len(comps)+1)
	keys = append(keys, inodeKey(namespace.RootID))
	t.db.mu.RLock()
	curID := namespace.RootID
	for _, c := range comps {
		id, ok := t.db.children[curID][c]
		if !ok {
			keys = append(keys, childKey(curID, c))
			break
		}
		keys = append(keys, inodeKey(id))
		curID = id
	}
	t.db.mu.RUnlock()
	t.db.serviceMultiT(keys, t.tc)
	t.db.bumpStat(func(s *Stats) {
		s.Reads++
		s.BatchedResolves++
		s.ResolveHops++
	})

	rootMode := ancestors
	if len(comps) == 0 {
		rootMode = terminal
	}
	if err := t.lock(inodeKey(namespace.RootID), rootMode); err != nil {
		return nil, err
	}
	cur := t.readINode(namespace.RootID)
	if cur == nil {
		return nil, namespace.ErrInvalidState
	}
	chain := make([]*namespace.INode, 0, len(comps)+1)
	chain = append(chain, cur)
	for i, c := range comps {
		var next *namespace.INode
		var serr error
		if i == len(comps)-1 {
			next, serr = t.lockedChild(cur.ID, c, terminal)
		} else {
			next, serr = t.resolveStep(cur.ID, c, ancestors)
		}
		if serr != nil {
			return chain, serr
		}
		chain = append(chain, next)
		cur = next
	}
	return chain, nil
}

// lockedChild is GetChild's locking protocol without the service charge
// (the batched resolve charged its multi-get upfront): the (parent, name)
// slot is locked first, then the child row, then the row is re-read —
// identical acquisition order to GetChild, which is what gives a
// terminal-exclusive batched resolve the same phantom protection as a
// trailing GetChild.
func (t *tx) lockedChild(parent namespace.INodeID, name string, mode store.LockMode) (*namespace.INode, error) {
	if err := t.lock(childKey(parent, name), mode); err != nil {
		return nil, err
	}
	if n := t.bufferedChild(parent, name); n != nil {
		if err := t.lock(inodeKey(n.ID), mode); err != nil {
			return nil, err
		}
		return n.Clone(), nil
	}
	t.db.mu.RLock()
	id, ok := t.db.children[parent][name]
	t.db.mu.RUnlock()
	if !ok {
		return nil, namespace.ErrNotFound
	}
	if err := t.lock(inodeKey(id), mode); err != nil {
		return nil, err
	}
	n := t.readINode(id)
	if n == nil || n.ParentID != parent || n.Name != name {
		return nil, namespace.ErrNotFound
	}
	return n, nil
}

// GetINodesBatched implements store.Tx: the rows are charged as one
// multi-get, then locked and read through the write buffer in the order
// given (callers pass a protocol-consistent order, e.g. a quiesced
// subtree's BFS order). Missing rows are skipped.
func (t *tx) GetINodesBatched(ids []namespace.INodeID, mode store.LockMode) ([]*namespace.INode, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	if len(ids) == 0 {
		return nil, nil
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = inodeKey(id)
	}
	t.db.serviceMultiT(keys, t.tc)
	t.db.bumpStat(func(s *Stats) { s.Reads++ })
	out := make([]*namespace.INode, 0, len(ids))
	for _, id := range ids {
		if err := t.lock(inodeKey(id), mode); err != nil {
			return out, err
		}
		if n := t.readINode(id); n != nil {
			out = append(out, n)
		}
	}
	return out, nil
}
