package ndb

import (
	"errors"
	"slices"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// This file implements the store's one service charge: an access counts
// its rows on the shards that own them, and every shard serves its share
// concurrently (MySQL Cluster's batched primary-key operations, which
// λFS's single-round-trip path resolution relies on), so the caller waits
// for the slowest shard, not the sum. A read, the multi-get, pays its
// round trip first; a commit's overlaps the rows' service (Commit).

// reserveShards books, at the current instant, each shard's share of one
// access, given as how many of its rows each shard owns (callers count a
// row on its key's shard and keep no key): ceil(rows/BatchRows) batches of
// service each, plus whatever OnShardService adds for the shard. It
// returns how long after now the slowest shard is done. This is the single
// point where the store's capacity model applies. With a trace context,
// each shard's wait for a worker (ndb.queue) and service (ndb.service)
// become spans tagged with the shard index, stamped from the reserved
// windows, the service span billing the rows the shard serves. A nil
// context records and allocates nothing. Safe for concurrent use.
func (db *DB) reserveShards(perShard []int, service time.Duration, tc *trace.Ctx) time.Duration {
	now := db.clk.Now()
	var until time.Duration
	for idx, rows := range perShard {
		if rows == 0 {
			continue
		}
		batches := (rows + db.cfg.BatchRows - 1) / db.cfg.BatchRows
		dur := time.Duration(batches) * service
		if db.cfg.OnShardService != nil {
			// Injected stalls delay the batch no matter how cheap its
			// nominal service is.
			dur += db.cfg.OnShardService(idx)
		}
		if dur <= 0 {
			continue
		}
		wait, dur := db.shards[idx].Reserve(now, dur)
		qsp := tc.Start(trace.KindStoreQueue)
		qsp.SetShard(idx)
		qsp.EndAt(now, wait)
		ssp := tc.Start(trace.KindStoreService)
		ssp.SetShard(idx)
		ssp.EndAt(now.Add(wait), dur)
		until = max(until, wait+dur)
	}
	return until
}

// serviceMultiT charges one multi-get: a single RTT, then every shard's
// read batches (reserveShards with ReadService); it blocks until the last
// is served. With a trace context the round trip is an ndb.rtt span that
// bills one dependent store round (none without an RTT).
func (db *DB) serviceMultiT(perShard []int, tc *trace.Ctx) {
	if db.cfg.RTT > 0 {
		sp := tc.Start(trace.KindStoreRTT)
		sp.AddStoreHops(1)
		db.clk.Sleep(db.cfg.RTT)
		sp.End()
	}
	db.clk.Sleep(db.reserveShards(perShard, db.cfg.ReadService, tc))
}

// serviceRows charges a read of rows rows that all sit on key's shard: a
// one-shard multi-get, RTT + wait + ceil(rows/BatchRows) × ReadService.
func (db *DB) serviceRows(key rowKey, rows int, tc *trace.Ctx) {
	var counts [stackShards]int
	perShard := db.shardCounts(counts[:])
	perShard[db.shardFor(key)] = rows
	db.serviceMultiT(perShard, tc)
}

// ResolvePathBatched implements store.Store: the whole chain fetched as
// one per-shard multi-get (read-committed, no locks, one resolution hop).
func (db *DB) ResolvePathBatched(path string, tc *trace.Ctx) ([]*namespace.INode, error) {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return nil, err
	}
	var split [stackComponents]string
	var counts [stackShards]int
	perShard := db.shardCounts(counts[:])
	db.mu.RLock()
	chain, err := db.chainLocked(namespace.AppendSplit(split[:0], p), perShard)
	db.mu.RUnlock()
	db.serviceMultiT(perShard, tc)
	db.tel.countBatchedResolve()
	return chain, err
}

// A resolution splits its paths, and counts its rows per shard, into stack
// buffers this large; a deeper path or a store with more shards spills to
// the heap.
const (
	stackComponents = 16
	stackShards     = 16
)

// shardCounts returns per-shard row counts, all zero: the first
// len(db.shards) entries of buf, which the caller hands over zeroed, when
// they fit, else a new slice.
func (db *DB) shardCounts(buf []int) []int {
	if len(db.shards) <= len(buf) {
		return buf[:len(db.shards)]
	}
	return make([]int, len(db.shards))
}

// chainLocked walks comps from the root (caller holds db.mu) and returns the
// rows found, with namespace.ErrNotFound when the walk ends early. Given
// perShard, it counts each row it reads on the row's shard.
func (db *DB) chainLocked(comps []string, perShard []int) ([]*namespace.INode, error) {
	count := func(k rowKey) {
		if perShard != nil {
			perShard[db.shardFor(k)]++
		}
	}
	cur := db.inodes[namespace.RootID]
	chain := make([]*namespace.INode, 1, len(comps)+1)
	chain[0] = cur
	count(inodeKey(cur.ID))
	for _, c := range comps {
		id, ok := db.child(cur.ID, c)
		if !ok {
			count(childKey(cur.ID, c)) // the multi-get still probes the missing (parent, name) slot
			return chain, namespace.ErrNotFound
		}
		if cur = db.inodes[id]; cur == nil {
			return chain, namespace.ErrNotFound
		}
		count(inodeKey(id))
		chain = append(chain, cur)
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
	perShard := make([]int, len(db.shards))
	for _, n := range out {
		perShard[db.shardFor(inodeKey(n.ID))]++
	}
	db.serviceMultiT(perShard, tc)
	db.tel.reads.Inc()
	return out, nil
}

// lockPlan is one path of a batched locked resolution. Its components are
// split[from:to] of the split buffer the resolution's paths were appended
// to: a plan holds no pointer, so the plans and the buffer can both live on
// the resolver's stack. Rows above depth slotFrom (the root is depth 0) are
// taken with ancestors, resolver-style: the (parent, name) slot is locked
// only when the row is missing. Rows from slotFrom down are taken with
// tail, slot first and then the row, which is what protects the names the
// caller decides on against phantoms.
type lockPlan struct {
	from, to  int
	ancestors store.LockMode
	tail      store.LockMode
	slotFrom  int
}

// comps returns the plan's path components out of split.
func (p *lockPlan) comps(split []string) []string { return split[p.from:p.to] }

func (p *lockPlan) modeAt(depth int) store.LockMode {
	if depth >= p.slotFrom {
		return p.tail
	}
	return p.ancestors
}

// samePrefix reports whether a and b agree on their first depth
// components, i.e. whether their depth-th rows are the same row.
func samePrefix(a, b []string, depth int) bool {
	if len(a) < depth || len(b) < depth {
		return false
	}
	for k := 0; k < depth; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// chargePlans peeks every plan's row IDs under the structure lock
// (uncharged) and charges ONE multi-get over the union of their rows — a
// row shared by two paths is fetched once, a missing component probes its
// (parent, name) slot — counted as one read and one resolution hop. With
// list, the children of the directory a plan resolves to ride in the same
// multi-get: one more row each on that directory's shard. The locked walks
// that follow revalidate every row.
func (t *tx) chargePlans(plans []lockPlan, split []string, list bool) {
	db := t.db
	var counts [stackShards]int
	perShard := db.shardCounts(counts[:])
	perShard[db.shardFor(inodeKey(namespace.RootID))]++
	db.mu.RLock()
	for i := range plans {
		curID, found := namespace.RootID, true
		comps := plans[i].comps(split)
		for d, c := range comps {
			fetched := false
			for j := 0; j < i && !fetched; j++ {
				fetched = samePrefix(plans[j].comps(split), comps, d+1)
			}
			id, ok := db.child(curID, c)
			key := childKey(curID, c) // a missing component probes its slot
			if ok {
				key = inodeKey(id)
			}
			if !fetched {
				perShard[db.shardFor(key)]++
			}
			if found = ok; !found {
				break
			}
			curID = id
		}
		if list && found {
			perShard[db.shardFor(inodeKey(curID))] += db.children[curID].len() // a file has no child list
		}
	}
	db.mu.RUnlock()
	db.serviceMultiT(perShard, t.tc)
	db.tel.countBatchedResolve()
}

// walkPlan locks and re-reads plans[i]'s chain from the root down into
// chain, which the caller hands over with one slot per row, charging
// nothing (chargePlans paid for the rows). Each row is taken the
// way the most demanding plan sharing it asks — strongest mode, and slot
// first if it is any plan's parent or terminal — decided here before the
// row's first acquisition, so a row two paths share is never upgraded and
// never takes its slot after the row. A missing component ends the walk
// with the partial chain and namespace.ErrNotFound.
func (t *tx) walkPlan(plans []lockPlan, split []string, i int, chain []*namespace.INode) ([]*namespace.INode, error) {
	comps := plans[i].comps(split)
	how := func(depth int) (m store.LockMode, slotFirst bool) {
		for j := range plans {
			if q := &plans[j]; samePrefix(comps, q.comps(split), depth) {
				m = max(m, q.modeAt(depth))
				slotFirst = slotFirst || depth >= q.slotFrom
			}
		}
		return m, slotFirst
	}
	rootMode, _ := how(0)
	if err := t.lock(inodeKey(namespace.RootID), rootMode); err != nil {
		return nil, err
	}
	cur := t.readINode(namespace.RootID, rootMode)
	if cur == nil {
		return nil, namespace.ErrInvalidState
	}
	chain[0] = cur
	for d, c := range comps {
		mode, slotFirst := how(d + 1)
		next, err := t.lockChild(cur.ID, c, mode, slotFirst)
		if err != nil {
			return chain[:d+1], err
		}
		chain[d+1] = next
		cur = next
	}
	return chain, nil
}

// resolveOne is the one-path batched resolution behind ResolvePathBatched
// and ListPathBatched: one multi-get charge for the whole chain (with list,
// the terminal directory's children ride in it), then the locked walk —
// ancestors locked with ancestors, the terminal component's (parent, name)
// slot and row with terminal. The chain is the transaction's storage, on
// lockedStorage's terms.
func (t *tx) resolveOne(path string, ancestors, terminal store.LockMode, list bool) ([]*namespace.INode, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	p, err := namespace.CleanPath(path)
	if err != nil {
		return nil, err
	}
	var buf [stackComponents]string
	split := namespace.AppendSplit(buf[:0], p)
	plans := [1]lockPlan{{to: len(split), ancestors: ancestors, tail: terminal, slotFrom: len(split)}}
	t.chargePlans(plans[:], split, list)
	_, rows := t.lockedStorage(0, len(split)+1)
	return t.walkPlan(plans[:], split, 0, rows)
}

// ResolvePathBatched implements store.Tx.
func (t *tx) ResolvePathBatched(path string, ancestors, terminal store.LockMode) ([]*namespace.INode, error) {
	return t.resolveOne(path, ancestors, terminal, false)
}

// ListPathBatched implements store.Tx: a listing miss in one round — the
// chain's multi-get also carries the directory's children, which are then
// read under the directory's lock.
func (t *tx) ListPathBatched(path string, mode store.LockMode) (chain, children []*namespace.INode, err error) {
	if chain, err = t.resolveOne(path, mode, mode, true); err != nil {
		return chain, nil, err
	}
	if dir := chain[len(chain)-1]; dir.IsDir {
		children = t.childrenOf(dir.ID, mode)
	}
	return chain, children, nil
}

// LockPaths implements store.Tx: a write's whole lock phase in one store
// round trip. One multi-get covers the union of the (canonical) paths'
// rows; then the paths are walked in component-wise sorted order, each
// from the root down — ancestors shared, the parent directory and the
// terminal exclusive, slot before row, a row two paths share taken on the
// terms of the more demanding one — so every transaction acquires its
// rows in the same global order: the namespace tree's preorder.
func (t *tx) LockPaths(paths ...string) ([]store.LockedPath, error) {
	if t.done {
		return nil, store.ErrTxDone
	}
	var planBuf [2]lockPlan // a write locks one path, a rename two
	var orderBuf [len(planBuf)]int
	var buf [len(planBuf) * stackComponents]string
	n, split := len(paths), buf[:0]
	plans, order := planBuf[:], orderBuf[:]
	if n > len(planBuf) {
		plans, order = make([]lockPlan, n), make([]int, n)
	}
	plans, order = plans[:n], order[:n]
	for i, p := range paths {
		from := len(split)
		if split = namespace.AppendSplit(split, p); len(split) == from || p[0] != '/' {
			return nil, namespace.ErrInvalidPath // the root has no parent to lock
		}
		plans[i] = lockPlan{from: from, to: len(split), ancestors: store.LockShared, tail: store.LockExclusive, slotFrom: len(split) - from - 1}
		order[i] = i
		for k := i; k > 0 && slices.Compare(plans[i].comps(split), plans[order[k-1]].comps(split)) < 0; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	t.chargePlans(plans, split, false)
	out, rows := t.lockedStorage(n, len(split)+n) // rows: each path's root … terminal, back to back
	for _, i := range order {
		parents := plans[i].to - plans[i].from // rows root … parent
		at := plans[i].from + i                // past the earlier paths' components and a root each
		end := at + parents + 1
		chain, err := t.walkPlan(plans, split, i, rows[at:end:end])
		switch {
		case err == nil:
			out[i].Chain, out[i].Target = chain[:parents], chain[parents]
		case errors.Is(err, namespace.ErrNotFound) && len(chain) == parents:
			out[i].Chain = chain // only the terminal is missing: absent, slot locked
		case errors.Is(err, namespace.ErrNotFound):
			out[i].Chain = chain // an ancestor is missing: the rows that exist
			return out, err
		default:
			return nil, err
		}
	}
	return out, nil
}

// lockedStorage returns a reply of n paths — none for a one-path
// resolution's chain — and the rows backing their chains: the
// transaction's inline buffers for its first reply when they fit, else new
// slices, so no reply is ever overwritten by a later one. A transaction is
// never reused, so a reply outlives the transaction's end too.
func (t *tx) lockedStorage(n, rows int) ([]store.LockedPath, []*namespace.INode) {
	if t.lockedOut || n > len(t.lockedBuf) || rows > len(t.chainBuf) {
		return make([]store.LockedPath, n), make([]*namespace.INode, rows)
	}
	t.lockedOut = true
	return t.lockedBuf[:n:n], t.chainBuf[:rows:rows]
}

// lockChild finds, locks and re-reads the row named name inside parent,
// charging nothing (the caller's multi-get paid for it). With
// slotFirst the (parent, name) slot is locked before the lookup — phantom
// protection for a name the caller decides on; without it the slot is
// locked only when the row is missing, so the miss serializes against a
// concurrent create of that name. The row is validated after its lock: it
// may have moved or vanished while the transaction waited.
func (t *tx) lockChild(parent namespace.INodeID, name string, mode store.LockMode, slotFirst bool) (*namespace.INode, error) {
	if slotFirst {
		if err := t.lock(childKey(parent, name), mode); err != nil {
			return nil, err
		}
	}
	if n := t.bufferedChild(parent, name); n != nil {
		if err := t.lock(inodeKey(n.ID), mode); err != nil {
			return nil, err
		}
		return handOut(n, mode), nil
	}
	lookup := func() (namespace.INodeID, bool) {
		t.db.mu.RLock()
		id, ok := t.db.child(parent, name)
		t.db.mu.RUnlock()
		return id, ok
	}
	id, ok := lookup()
	if !ok && !slotFirst {
		if err := t.lock(childKey(parent, name), mode); err != nil {
			return nil, err
		}
		id, ok = lookup() // a concurrent create may have committed while we waited
	}
	if !ok {
		return nil, namespace.ErrNotFound
	}
	if err := t.lock(inodeKey(id), mode); err != nil {
		return nil, err
	}
	n := t.readINode(id, mode)
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
	perShard := make([]int, len(t.db.shards))
	for _, id := range ids {
		perShard[t.db.shardFor(inodeKey(id))]++
	}
	t.db.serviceMultiT(perShard, t.tc)
	t.db.tel.reads.Inc()
	out := make([]*namespace.INode, 0, len(ids))
	for _, id := range ids {
		if err := t.lock(inodeKey(id), mode); err != nil {
			return out, err
		}
		if n := t.readINode(id, mode); n != nil {
			out = append(out, n)
		}
	}
	return out, nil
}
