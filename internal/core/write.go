package core

import (
	"errors"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// lockParent resolves path's parent chain (ancestors shared-locked) and
// exclusive-locks the parent directory row itself, returning the parent
// INode. The parent is locked exclusively without an upgrade (ancestors
// are resolved only up to the grandparent) so concurrent creators in the
// same directory serialize cleanly instead of deadlocking on a
// shared→exclusive upgrade. The chain read and the parent read are one
// batched store resolution (ResolvePathBatched with an exclusive
// terminal); the lock order is ancestors in path order, then the parent's
// directory-entry slot, then its row.
func (e *Engine) lockParent(tx store.Tx, path string) (*namespace.INode, error) {
	parentPath := namespace.ParentPath(path)
	if parentPath == "/" {
		root, err := tx.GetINode(namespace.RootID, store.LockExclusive)
		if err != nil {
			return nil, err
		}
		return root, nil
	}
	chain, err := tx.ResolvePathBatched(parentPath, store.LockShared, store.LockExclusive)
	if err != nil {
		return nil, err
	}
	if err := checkSubtreeLocks(chain[:len(chain)-1], e.id); err != nil {
		return nil, err
	}
	parent := chain[len(chain)-1]
	if !parent.IsDir {
		return nil, namespace.ErrNotDir
	}
	if parent.SubtreeLockOwner != "" && parent.SubtreeLockOwner != e.id {
		return nil, namespace.ErrSubtreeBusy
	}
	return parent, nil
}

// create makes a new file at path, running the single-INode coherence
// protocol (Algorithm 1): exclusive store locks → INV/ACK → persist.
func (e *Engine) create(tc *trace.Ctx, path string) *namespace.Response {
	if path == "/" {
		return fail(namespace.ErrExists)
	}
	var created *namespace.INode
	err := store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		parent, err := e.lockParent(tx, path)
		if err != nil {
			return err
		}
		name := namespace.BaseName(path)
		if _, err := tx.GetChild(parent.ID, name, store.LockExclusive); err == nil {
			return namespace.ErrExists
		} else if !errors.Is(err, namespace.ErrNotFound) {
			return err
		}
		now := e.clk.Now()
		created = &namespace.INode{
			ID:       e.st.NextID(),
			ParentID: parent.ID,
			Name:     name,
			Perm:     namespace.PermDefaultFile,
			Owner:    "hdfs",
			Group:    "hdfs",
			Mtime:    now,
			Ctime:    now,
		}
		if locs := e.dnview.PickLocations(); len(locs) > 0 {
			created.Blocks = []namespace.Block{{
				ID:        namespace.BlockID(created.ID),
				Size:      0,
				Locations: locs,
			}}
		}
		if err := tx.PutINode(created); err != nil {
			return err
		}
		parent.Mtime = now
		if err := tx.PutINode(parent); err != nil {
			return err
		}
		// Locks held: run the coherence protocol before persisting.
		return e.invalidateAll(tc, e.invTargets(path), path)
	})
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{ID: created.ID}
}

// mkdirs creates the directory at path along with any missing ancestors
// (HDFS mkdirs semantics). Creating an existing directory succeeds.
func (e *Engine) mkdirs(tc *trace.Ctx, path string) *namespace.Response {
	if path == "/" {
		return &namespace.Response{ID: namespace.RootID}
	}
	var dirID namespace.INodeID
	err := store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		// Lock-free peek to find the deepest existing component; the
		// authoritative re-check happens below under exclusive locks.
		// Taking shared locks here would deadlock concurrent mkdirs on a
		// shared→exclusive upgrade.
		chain, err := e.resolveStore(tc, path)
		if err == nil {
			target := chain[len(chain)-1]
			if !target.IsDir {
				return namespace.ErrExists
			}
			dirID = target.ID
			return nil
		}
		if !errors.Is(err, namespace.ErrNotFound) {
			return err
		}
		if cerr := checkSubtreeLocks(chain, e.id); cerr != nil {
			return cerr
		}
		comps := namespace.SplitPath(path)
		cur := chain[len(chain)-1]
		if !cur.IsDir {
			return namespace.ErrNotDir
		}
		now := e.clk.Now()
		var createdPaths []string
		curPath := "/"
		for i := 0; i < len(chain)-1; i++ {
			curPath = namespace.JoinPath(curPath, comps[i])
		}
		// Exclusive-lock the deepest existing dir directly (ancestors
		// shared only): serializes sibling mkdirs without upgrades.
		firstMissing := namespace.JoinPath(curPath, comps[len(chain)-1])
		cur, err = e.lockParent(tx, firstMissing)
		if err != nil {
			return err
		}
		for i := len(chain) - 1; i < len(comps); i++ {
			name := comps[i]
			// Re-check under the exclusive lock: a concurrent mkdirs may
			// have created this component while we resolved.
			if existing, gerr := tx.GetChild(cur.ID, name, store.LockExclusive); gerr == nil {
				if !existing.IsDir {
					return namespace.ErrNotDir
				}
				cur = existing
				curPath = namespace.JoinPath(curPath, name)
				continue
			} else if !errors.Is(gerr, namespace.ErrNotFound) {
				return gerr
			}
			child := &namespace.INode{
				ID:       e.st.NextID(),
				ParentID: cur.ID,
				Name:     name,
				IsDir:    true,
				Perm:     namespace.PermDefaultDir,
				Owner:    "hdfs",
				Group:    "hdfs",
				Mtime:    now,
				Ctime:    now,
			}
			if err := tx.PutINode(child); err != nil {
				return err
			}
			cur.Mtime = now
			if err := tx.PutINode(cur); err != nil {
				return err
			}
			cur = child
			curPath = namespace.JoinPath(curPath, name)
			createdPaths = append(createdPaths, curPath)
		}
		dirID = cur.ID
		if len(createdPaths) == 0 {
			return nil
		}
		// Fresh directories cannot be cached anywhere; the INVs exist to
		// clear stale listing-completeness on the parents' owners.
		return e.invalidateAll(tc, e.invTargets(createdPaths...), createdPaths...)
	})
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{ID: dirID}
}

// del deletes a file or (recursively) a directory. Directories route
// through the subtree protocol.
func (e *Engine) del(tc *trace.Ctx, path string) *namespace.Response {
	if path == "/" {
		return fail(namespace.ErrPermission)
	}
	// Peek at the target to decide file vs subtree.
	chain, _, err := e.resolve(tc, path)
	if err != nil {
		return fail(err)
	}
	target := chain[len(chain)-1]
	if target.IsDir {
		return e.deleteSubtree(tc, path)
	}

	err = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		parent, err := e.lockParent(tx, path)
		if err != nil {
			return err
		}
		target, err := tx.GetChild(parent.ID, namespace.BaseName(path), store.LockExclusive)
		if err != nil {
			return err
		}
		if target.IsDir {
			// Raced with a concurrent replace-by-dir; redo as subtree.
			return namespace.ErrInvalidState
		}
		if err := tx.DeleteINode(target.ID); err != nil {
			return err
		}
		parent.Mtime = e.clk.Now()
		if err := tx.PutINode(parent); err != nil {
			return err
		}
		return e.invalidateAll(tc, e.invTargets(path), path)
	})
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{}
}

// mv renames path to dest. Directory moves route through the subtree
// protocol; file moves run the single-INode coherence protocol across
// both the source and destination owner deployments.
func (e *Engine) mv(tc *trace.Ctx, src, dest string) *namespace.Response {
	if src == "/" || dest == "/" {
		return fail(namespace.ErrPermission)
	}
	if namespace.HasPathPrefix(dest, src) {
		return fail(namespace.ErrMvIntoSelf)
	}
	chain, _, err := e.resolve(tc, src)
	if err != nil {
		return fail(err)
	}
	if chain[len(chain)-1].IsDir {
		return e.mvSubtree(tc, src, dest)
	}

	err = store.RunTx(e.st, e.id, tc, func(tx store.Tx) error {
		// Lock parents in path order to avoid mv/mv deadlocks.
		srcParentPath := namespace.ParentPath(src)
		dstParentPath := namespace.ParentPath(dest)
		first, second := src, dest
		if dstParentPath < srcParentPath {
			first, second = dest, src
		}
		firstParent, err := e.lockParent(tx, first)
		if err != nil {
			return err
		}
		secondParent := firstParent
		if srcParentPath != dstParentPath {
			secondParent, err = e.lockParent(tx, second)
			if err != nil {
				return err
			}
		}
		srcParent, dstParent := firstParent, secondParent
		if first != src {
			srcParent, dstParent = secondParent, firstParent
		}

		target, err := tx.GetChild(srcParent.ID, namespace.BaseName(src), store.LockExclusive)
		if err != nil {
			return err
		}
		if target.IsDir {
			return namespace.ErrInvalidState
		}
		if _, err := tx.GetChild(dstParent.ID, namespace.BaseName(dest), store.LockExclusive); err == nil {
			return namespace.ErrExists
		} else if !errors.Is(err, namespace.ErrNotFound) {
			return err
		}
		now := e.clk.Now()
		target.ParentID = dstParent.ID
		target.Name = namespace.BaseName(dest)
		target.Mtime = now
		if err := tx.PutINode(target); err != nil {
			return err
		}
		srcParent.Mtime = now
		if err := tx.PutINode(srcParent); err != nil {
			return err
		}
		if dstParent.ID != srcParent.ID {
			dstParent.Mtime = now
			if err := tx.PutINode(dstParent); err != nil {
				return err
			}
		}
		return e.invalidateAll(tc, e.invTargets(src, dest), src, dest)
	})
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{}
}
