package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"lambdafs/internal/clock"

	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// This file implements the subtree operation protocol (Appendix D),
// layered on HopsFS's three-phase scheme:
//
//	Phase 1  Acquire the application-level subtree lock: set the root
//	         INode's SubtreeLockOwner under an exclusive row lock and
//	         register the operation in the subtree_ops table (isolation
//	         against overlapping subtree operations).
//	Phase 2  Quiesce: walk the subtree (building the in-memory tree) and
//	         compute the set of deployments caching any of its metadata.
//	Phase 3  Run the λFS subtree coherence protocol — a single prefix INV
//	         to the deployment set — then execute the sub-operations in
//	         parallel batches, optionally offloaded to helper NameNodes
//	         in other deployments (serverless offloading).
type subtreeWalk struct {
	root    *namespace.INode
	nodes   []*namespace.INode // BFS order, root first
	invDeps []int
}

// subtreeLock runs Phase 1 for op on rootPath, returning the locked root.
func (e *Engine) subtreeLock(tc *trace.Ctx, rootPath string, op namespace.OpType) (*namespace.INode, error) {
	var root *namespace.INode
	err := store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		locked, err := tx.LockPaths(rootPath)
		if err != nil {
			return err
		}
		if _, err := e.lockedParent(locked[0]); err != nil {
			return err
		}
		r := locked[0].Target
		if r == nil {
			return namespace.ErrNotFound
		}
		if !r.IsDir {
			return namespace.ErrNotDir
		}
		if r.SubtreeLockOwner != "" && r.SubtreeLockOwner != e.id {
			return namespace.ErrSubtreeBusy
		}
		r.SubtreeLockOwner = e.id
		if err := tx.PutINode(r); err != nil {
			return err
		}
		if err := tx.KVPut(store.TableSubtreeOps, fmt.Sprintf("%d", r.ID),
			[]byte(fmt.Sprintf("%s %s %s", e.id, op, rootPath))); err != nil {
			return err
		}
		root = r
		return nil
	})
	return root, err
}

// subtreeUnlock clears Phase 1 state (used on mv completion and failure
// paths; delete removes the root row itself).
func (e *Engine) subtreeUnlock(tc *trace.Ctx, rootID namespace.INodeID) {
	_ = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		r, err := tx.GetINode(rootID, store.LockExclusive)
		if err != nil {
			if errors.Is(err, namespace.ErrNotFound) {
				return tx.KVDelete(store.TableSubtreeOps, fmt.Sprintf("%d", rootID))
			}
			return err
		}
		r.SubtreeLockOwner = ""
		if err := tx.PutINode(r); err != nil {
			return err
		}
		return tx.KVDelete(store.TableSubtreeOps, fmt.Sprintf("%d", rootID))
	})
}

// quiesce runs Phase 2: walk the subtree and compute the INV deployment
// set, which is the ring's answer for the subtree's directories: where each
// one's own metadata is cached (for the root, also the parent listing that
// contains it) and where its children and its listing are — the latter even
// for an empty directory, whose cached listing no child's owner would cover.
func (e *Engine) quiesce(tc *trace.Ctx, rootPath string, root *namespace.INode) (*subtreeWalk, error) {
	sp := tc.Start(trace.KindSubtreeQuiesce)
	defer sp.End()
	nodes, err := e.st.ListSubtreeBatched(root.ID, tc)
	if err != nil {
		return nil, err
	}
	sp.SetDetail(fmt.Sprintf("inodes=%d", len(nodes)))
	w := &subtreeWalk{root: root, nodes: nodes}
	if e.ring == nil {
		w.invDeps = []int{e.dep}
		return w, nil
	}
	dirPaths := map[namespace.INodeID]string{root.ID: rootPath}
	dirs := []string{rootPath}
	for _, n := range nodes[1:] {
		parentPath, ok := dirPaths[n.ParentID]
		if !ok {
			// BFS order guarantees parents precede children.
			return nil, namespace.ErrInvalidState
		}
		if n.IsDir {
			p := namespace.JoinPath(parentPath, n.Name)
			dirPaths[n.ID] = p
			dirs = append(dirs, p)
		}
	}
	w.invDeps = e.ring.DeploymentsForSubtree(dirs)
	return w, nil
}

// prefixInvalidate runs the subtree coherence protocol: one prefix INV for
// rootPath to every deployment in the set, then the same invalidation
// locally. A rename also names the path that appears (appears != ""), as a
// plain INV in the same message, so the listing of its new parent loses
// its completeness exactly as the old parent's does.
func (e *Engine) prefixInvalidate(tc *trace.Ctx, deps []int, rootPath, appears string) error {
	sp := tc.Start(trace.KindCoherence)
	var start time.Time
	if tc != nil {
		sp.SetDeployment(e.dep)
		sp.SetInstance(e.id)
		sp.SetDetail(fmt.Sprintf("prefix deps=%d", len(deps)))
		start = e.clk.Now()
	}
	invs := []coordinator.Invalidation{{Path: rootPath, Writer: e.id}}
	if appears != "" {
		invs = append(invs, coordinator.Invalidation{Path: appears, Writer: e.id})
	}
	if e.coord != nil {
		if err := e.coord.InvalidateBatchTraced(deps, invs, nil); err != nil {
			sp.End()
			return err
		}
	}
	for _, inv := range invs {
		e.HandleInvalidation(inv)
	}
	if tc != nil {
		tc.Emit(trace.Event{
			Type: trace.EventCoherenceINV, Deployment: e.dep, Instance: e.id,
			Dur:    e.clk.Since(start),
			Detail: fmt.Sprintf("prefix=%s deps=%d", rootPath, len(deps)),
		})
	}
	sp.End()
	return nil
}

// runBatches partitions items into SubtreeBatch-sized chunks and executes
// them in parallel, offloading to helper NameNodes when an Offloader is
// installed (Appendix D: "elastically offloading batched operations").
func (e *Engine) runBatches(tc *trace.Ctx, n int, exec func(start, end int, cpu CPU)) {
	sp := tc.Start(trace.KindSubtreeExec)
	sp.SetDetail(fmt.Sprintf("items=%d batch=%d", n, e.cfg.SubtreeBatch))
	batch := e.cfg.SubtreeBatch
	g := clock.NewGroup(e.clk)
	for start := 0; start < n; start += batch {
		start, end := start, start+batch
		if end > n {
			end = n
		}
		e.tel.subtreeParts.Inc()
		g.Add(1) // a helper NameNode may run the batch on a goroutine of its own
		run := func(cpu CPU) {
			defer g.Done()
			exec(start, end, cpu)
		}
		if e.offload != nil && e.offload.OffloadBatch(e.dep, run) {
			tc.Emit(trace.Event{
				Type: trace.EventSubtreeOffload, Deployment: e.dep, Instance: e.id,
				Detail: fmt.Sprintf("batch=%d-%d", start, end),
			})
			continue
		}
		clock.Go(e.clk, func() { run(e.cpu) })
	}
	g.Wait()
	sp.End()
}

// CleanupCrashedNameNode removes persistent state a crashed NameNode left
// behind: its store row locks and any subtree locks it owned (§3.6). Wire
// it into the Coordinator's OnCrash callback alongside
// store.ReleaseOwner.
func CleanupCrashedNameNode(st store.Store, nnID string) {
	st.ReleaseOwner(nnID)
	_ = store.RunTx(st, "crash-cleanup", nil, func(tx store.Tx) error {
		rows, err := tx.KVScan(store.TableSubtreeOps, "")
		if err != nil {
			return err
		}
		for key, val := range rows {
			owner, _, _ := cutSpace(string(val))
			if owner != nnID {
				continue
			}
			var rootID namespace.INodeID
			if _, err := fmt.Sscanf(key, "%d", &rootID); err != nil {
				continue
			}
			if r, err := tx.GetINode(rootID, store.LockExclusive); err == nil {
				r.SubtreeLockOwner = ""
				if err := tx.PutINode(r); err != nil {
					return err
				}
			}
			if err := tx.KVDelete(store.TableSubtreeOps, key); err != nil {
				return err
			}
		}
		return nil
	})
}

func cutSpace(s string) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// deleteSubtree implements recursive directory delete.
func (e *Engine) deleteSubtree(tc *trace.Ctx, rootPath string) *namespace.Response {
	root, err := e.subtreeLock(tc, rootPath, namespace.OpDelete)
	if err != nil {
		return fail(err)
	}
	w, err := e.quiesce(tc, rootPath, root)
	if err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	if err := e.prefixInvalidate(tc, w.invDeps, rootPath, ""); err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	// Delete depth-first: children before parents. BFS order reversed
	// gives exactly that.
	victims := make([]*namespace.INode, 0, len(w.nodes)-1)
	for i := len(w.nodes) - 1; i >= 1; i-- {
		victims = append(victims, w.nodes[i])
	}
	perINodeCPU := e.cfg.SubtreeCPUPerINode
	batch := e.cfg.SubtreeBatch
	errs := make([]error, (len(victims)+batch-1)/batch) // one slot per batch
	e.runBatches(tc, len(victims), func(start, end int, cpu CPU) {
		cpu.AcquireCPU(time.Duration(end-start) * perINodeCPU)
		errs[start/batch] = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
			for _, n := range victims[start:end] {
				if err := tx.DeleteINode(n.ID); err != nil && !errors.Is(err, namespace.ErrNotFound) {
					return err
				}
			}
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			// Victims of the failed batch still exist: deleting the root
			// now would orphan them. Leave the root in place, unlocked, so
			// the delete can be retried.
			e.subtreeUnlock(tc, root.ID)
			return fail(err)
		}
	}
	// Finally remove the root itself, the registry entry, and bump the
	// parent's mtime.
	err = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		locked, err := tx.LockPaths(rootPath)
		if err != nil {
			return err
		}
		parent, err := e.lockedParent(locked[0])
		if err != nil {
			return err
		}
		if err := tx.DeleteINode(root.ID); err != nil {
			return err
		}
		parent.Mtime = e.clk.Now()
		if err := tx.PutINode(parent); err != nil {
			return err
		}
		return tx.KVDelete(store.TableSubtreeOps, fmt.Sprintf("%d", root.ID))
	})
	if err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	return &namespace.Response{}
}

// mvSubtree implements recursive directory rename. The namespace stores
// children by parent ID, so the data change is a single row update on the
// subtree root; the cost is the quiesce (per-INode write locks taken and
// released in batches, as in HopsFS Phase 2) and the coherence protocol.
func (e *Engine) mvSubtree(tc *trace.Ctx, src, dest string) *namespace.Response {
	root, err := e.subtreeLock(tc, src, namespace.OpMv)
	if err != nil {
		return fail(err)
	}
	w, err := e.quiesce(tc, src, root)
	if err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	// The destination's owner sees a new entry appear in a listing it caches.
	for _, d := range e.invTargets([]written{{path: dest}}) {
		if !slices.Contains(w.invDeps, d) {
			w.invDeps = append(w.invDeps, d)
		}
	}
	if err := e.prefixInvalidate(tc, w.invDeps, src, dest); err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	// Quiesce sub-operations: take and release write locks on every
	// INode in the subtree, batched and in parallel. Each batch reads its
	// rows in one per-shard multi-get (GetINodesBatched); missing rows
	// (deleted concurrently before the subtree lock landed) are skipped.
	perINodeCPU := e.cfg.SubtreeCPUPerINode
	nodes := w.nodes[1:]
	e.runBatches(tc, len(nodes), func(start, end int, cpu CPU) {
		cpu.AcquireCPU(time.Duration(end-start) * perINodeCPU)
		tx := e.st.BeginTraced(e.id, tc)
		ids := make([]namespace.INodeID, 0, end-start)
		for _, n := range nodes[start:end] {
			ids = append(ids, n.ID)
		}
		_, _ = tx.GetINodesBatched(ids, store.LockExclusive)
		tx.Abort() // releases the quiesce locks
	})
	// The actual move: relink the root, clear the subtree lock. Both paths
	// lock in one sorted LockPaths call — the same order a file mv takes,
	// so crossing directory and file moves cannot deadlock.
	err = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		locked, err := tx.LockPaths(src, dest)
		if err != nil {
			return err
		}
		srcParent, dstParent, err := e.lockedMvParents(locked)
		if err != nil {
			return err
		}
		r := locked[0].Target
		if r == nil || r.ID != root.ID {
			return namespace.ErrNotFound
		}
		now := e.clk.Now()
		r.ParentID = dstParent.ID
		r.Name = namespace.BaseName(dest)
		r.SubtreeLockOwner = ""
		r.Mtime = now
		if err := tx.PutINode(r); err != nil {
			return err
		}
		if err := touchMvParents(tx, srcParent, dstParent, now); err != nil {
			return err
		}
		return tx.KVDelete(store.TableSubtreeOps, fmt.Sprintf("%d", root.ID))
	})
	if err != nil {
		e.subtreeUnlock(tc, root.ID)
		return fail(err)
	}
	return &namespace.Response{ID: root.ID}
}
