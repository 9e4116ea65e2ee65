package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
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
//	Phase 1  Acquire the application-level subtree lock: the delete's or
//	         mv's own transaction, finding a directory under its locks,
//	         sets the root INode's SubtreeLockOwner and registers the
//	         operation in the subtree_ops table (isolation against
//	         overlapping subtree operations).
//	Phase 2  Quiesce: walk the subtree (building the in-memory tree) and
//	         compute the set of deployments caching any of its metadata.
//	Phase 3  Run the λFS subtree coherence protocol — a single prefix INV
//	         to the deployment set — then execute the sub-operations in
//	         parallel batches, optionally offloaded to helper NameNodes
//	         in other deployments (serverless offloading).
//
// The operation then ends in the transaction it began with, run again for
// the root: it deletes or relinks the root as it would a file, with the
// INV/ACK round under the parents' exclusive locks, and drops the root's
// subtree_ops row.

// deleteOrMove runs a delete or mv of path through run, its one transaction
// (delTx, mvTx). Run with root InvalidID, run commits the change to a file,
// or, finding a directory, flags it (Phase 1, flagSubtree) and returns its
// ID; Phases 2 and 3 follow, and run is run again with that ID to commit the
// change to the directory itself — and to nothing else: a different row at
// the path is ErrNotFound. It is never run for a root this operation did not
// flag and quiesce, so a flag left over with this engine's ID is quiesced
// like any other. A raced operation's first transaction checks and records
// its result row (writeTx); run declines a directory for it, so it never
// gets further.
func (e *Engine) deleteOrMove(tc *trace.Ctx, r *namespace.Reply, op namespace.OpType, path string, race namespace.RequestKey,
	run func(tx store.Tx, root namespace.INodeID) (flagged namespace.INodeID, err error)) *namespace.Response {
	root, err := e.writeTx(tc, race, func(tx store.Tx) (namespace.INodeID, error) {
		return run(tx, namespace.InvalidID)
	})
	if err != nil {
		return fail(r, err)
	}
	if root == namespace.InvalidID {
		return done(r, namespace.InvalidID)
	}
	err = e.runSubtree(tc, op, path, root)
	if err == nil {
		err = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
			if _, err := run(tx, root); err != nil {
				return err
			}
			return tx.KVDelete(store.TableSubtreeOps, subtreeOpsKey(root))
		})
	}
	if err != nil {
		e.subtreeUnlock(tc, root)
		return fail(r, err)
	}
	if op == namespace.OpMv {
		return done(r, root)
	}
	return done(r, namespace.InvalidID)
}

// flagSubtree is Phase 1 for dir, found at path under the exclusive locks of
// op's own transaction, whose chain lockedParent has already checked: subtree
// isolation for dir itself, then dir's SubtreeLockOwner set and op registered
// in subtree_ops. It returns dir's ID.
func (e *Engine) flagSubtree(tx store.Tx, dir *namespace.INode, op namespace.OpType, path string) (namespace.INodeID, error) {
	if dir.SubtreeLockOwner != "" && dir.SubtreeLockOwner != e.id {
		return namespace.InvalidID, namespace.ErrSubtreeBusy
	}
	dir = dir.Clone()
	dir.SubtreeLockOwner = e.id
	id := dir.ID
	if err := tx.PutINode(dir); err != nil {
		return namespace.InvalidID, err
	}
	return id, tx.KVPut(store.TableSubtreeOps, subtreeOpsKey(id), []byte(fmt.Sprintf("%s %s %s", e.id, op, path)))
}

// subtreeOpsKey is the subtree_ops key of the operation on root.
func subtreeOpsKey(root namespace.INodeID) string {
	return strconv.FormatUint(uint64(root), 10)
}

// subtreeUnlock clears Phase 1 state on a failure path.
func (e *Engine) subtreeUnlock(tc *trace.Ctx, rootID namespace.INodeID) {
	_ = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		r, err := tx.GetINode(rootID, store.LockExclusive)
		if err != nil {
			if errors.Is(err, namespace.ErrNotFound) {
				return tx.KVDelete(store.TableSubtreeOps, subtreeOpsKey(rootID))
			}
			return err
		}
		r = r.Clone()
		r.SubtreeLockOwner = ""
		if err := tx.PutINode(r); err != nil {
			return err
		}
		return tx.KVDelete(store.TableSubtreeOps, subtreeOpsKey(rootID))
	})
}

// runSubtree runs Phases 2 and 3 of op on the subtree at rootPath.
func (e *Engine) runSubtree(tc *trace.Ctx, op namespace.OpType, rootPath string, root namespace.INodeID) error {
	descendants, deps, err := e.quiesce(tc, rootPath, root)
	if err != nil {
		return err
	}
	if err := e.prefixInvalidate(tc, deps, rootPath); err != nil {
		return err
	}
	if op == namespace.OpDelete {
		return e.deleteSubtree(tc, descendants)
	}
	e.mvSubtree(tc, descendants)
	return nil
}

// quiesce runs Phase 2: walk the subtree, returning the root's descendants
// in BFS order, and compute the INV deployment set, which is the ring's
// answer for the subtree's directories: where each one's own metadata is
// cached (for the root, also the parent listing that contains it) and where
// its children and its listing are — the latter even for an empty
// directory, whose cached listing no child's owner would cover.
func (e *Engine) quiesce(tc *trace.Ctx, rootPath string, root namespace.INodeID) (descendants []*namespace.INode, deps []int, err error) {
	sp := tc.Start(trace.KindSubtreeQuiesce)
	defer sp.End()
	nodes, err := e.st.ListSubtreeBatched(root, tc)
	if err != nil {
		return nil, nil, err
	}
	sp.SetDetail(fmt.Sprintf("inodes=%d", len(nodes)))
	descendants = nodes[1:]
	if e.ring == nil {
		return descendants, []int{e.dep}, nil
	}
	dirPaths := map[namespace.INodeID]string{root: rootPath}
	dirs := []string{rootPath}
	for _, n := range descendants {
		parentPath, ok := dirPaths[n.ParentID]
		if !ok {
			// BFS order guarantees parents precede children.
			return nil, nil, namespace.ErrInvalidState
		}
		if n.IsDir {
			p := namespace.JoinPath(parentPath, n.Name)
			dirPaths[n.ID] = p
			dirs = append(dirs, p)
		}
	}
	return descendants, e.ring.DeploymentsForSubtree(dirs), nil
}

// prefixInvalidate runs the subtree coherence protocol: one prefix INV for
// rootPath to every deployment in the set, then the same invalidation
// locally. What the root's own row becomes is invalidated later, by the
// operation's last transaction, under its locks.
func (e *Engine) prefixInvalidate(tc *trace.Ctx, deps []int, rootPath string) error {
	sp := tc.Start(trace.KindCoherence)
	var start time.Time
	if tc != nil {
		sp.SetDeployment(e.dep)
		sp.SetInstance(e.id)
		sp.SetDetail(fmt.Sprintf("prefix deps=%d", len(deps)))
		start = e.clk.Now()
	}
	inv := coordinator.Invalidation{Path: rootPath, Writer: e.id}
	if e.coord != nil {
		if err := e.coord.InvalidateBatchTraced(deps, []coordinator.Invalidation{inv}, nil); err != nil {
			sp.End()
			return err
		}
	}
	e.HandleInvalidation(inv)
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
			owner, _, _ := strings.Cut(string(val), " ")
			if owner != nnID {
				continue
			}
			rootID, err := strconv.ParseUint(key, 10, 64)
			if err != nil {
				continue
			}
			if r, err := tx.GetINode(namespace.INodeID(rootID), store.LockExclusive); err == nil {
				r = r.Clone()
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

// deleteSubtree deletes a quiesced subtree's descendants (BFS order) in
// batches, deepest first: BFS order reversed deletes children before
// parents.
func (e *Engine) deleteSubtree(tc *trace.Ctx, descendants []*namespace.INode) error {
	victims := make([]*namespace.INode, 0, len(descendants))
	for i := len(descendants) - 1; i >= 0; i-- {
		victims = append(victims, descendants[i])
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
			// would orphan them. The root stays in place, unlocked, so the
			// delete can be retried.
			return err
		}
	}
	return nil
}

// mvSubtree quiesces a directory rename's subtree. The namespace stores
// children by parent ID, so the data change is a single row update on the
// root; the cost is taking and releasing write locks on every descendant,
// batched and in parallel, as in HopsFS Phase 2. Each batch reads its rows
// in one per-shard multi-get (GetINodesBatched); missing rows (deleted
// concurrently before the subtree lock landed) are skipped.
func (e *Engine) mvSubtree(tc *trace.Ctx, descendants []*namespace.INode) {
	perINodeCPU := e.cfg.SubtreeCPUPerINode
	e.runBatches(tc, len(descendants), func(start, end int, cpu CPU) {
		cpu.AcquireCPU(time.Duration(end-start) * perINodeCPU)
		tx := e.st.BeginTraced(e.id, tc)
		ids := make([]namespace.INodeID, 0, end-start)
		for _, n := range descendants[start:end] {
			ids = append(ids, n.ID)
		}
		_, _ = tx.GetINodesBatched(ids, store.LockExclusive)
		tx.Abort() // releases the quiesce locks
	})
}
