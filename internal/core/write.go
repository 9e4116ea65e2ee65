package core

import (
	"errors"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// lockedParent applies subtree isolation to a locked path's chain (an
// ancestor or the parent under a foreign subtree operation fails the
// write) and returns the parent directory, exclusive-locked by the lock
// phase (store.Tx.LockPath or LockPaths).
func (e *Engine) lockedParent(lp store.LockedPath) (*namespace.INode, error) {
	if err := checkSubtreeLocks(lp.Chain, e.id); err != nil {
		return nil, err
	}
	parent := lp.Chain[len(lp.Chain)-1]
	if !parent.IsDir {
		return nil, namespace.ErrNotDir
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
		locked, err := tx.LockPath(path)
		if err != nil {
			return err
		}
		parent, err := e.lockedParent(locked)
		if err != nil {
			return err
		}
		if locked.Target != nil {
			return namespace.ErrExists
		}
		now := e.clk.Now().UnixNano()
		created = &namespace.INode{
			ID:       e.st.NextID(),
			ParentID: parent.ID,
			Name:     namespace.BaseName(path),
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
		if parent, err = touched(tx, parent, now); err != nil {
			return err
		}
		// Locks held: run the coherence protocol before persisting.
		return e.invalidateAll(tc, tx, written{path: path, parent: parent, child: created})
	})
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{ID: created.ID}
}

// errAncestorMissing aborts a mkdirs transaction that locked for a leaf and
// found an ancestor missing too; mkdirs redoes it from the first missing
// component.
var errAncestorMissing = errors.New("core: mkdirs ancestor missing")

// mkdirs creates the directory at path along with any missing ancestors
// (HDFS mkdirs semantics). Creating an existing directory succeeds. The
// first lock phase assumes a leaf — only the last component missing — and
// so is the one store round of a leaf, an existing directory or a file in
// the way. When it finds an ancestor missing too, the rows it did find say
// where the path first goes missing, and a second transaction locks from
// there: a deep mkdirs takes two rounds. path is canonical: its components
// are split into a stack buffer, and each directory's path is a prefix of
// it.
func (e *Engine) mkdirs(tc *trace.Ctx, path string) *namespace.Response {
	if path == "/" {
		return &namespace.Response{ID: namespace.RootID}
	}
	var split [chainDepth]string // a deeper path spills to the heap
	comps := namespace.AppendSplit(split[:0], path)
	first := len(comps) - 1 // index of the first missing component, as far as is known
	var dirID namespace.INodeID
	run := func(tx store.Tx) (err error) {
		dirID, err = e.mkdirsFrom(tc, tx, path, comps, &first)
		return err
	}
	err := store.RunTx(e.st, e.id, tc, run)
	if err == errAncestorMissing {
		err = store.RunTx(e.st, e.id, tc, run)
	}
	if err != nil {
		return fail(err)
	}
	return &namespace.Response{ID: dirID}
}

// mkdirsFrom is one mkdirs transaction for path, split into comps, whose
// lock phase starts at comps[*first]. Locking for the leaf, it answers an
// existing directory's ID, or ErrExists for a file, before subtree
// isolation applies (what the path names decides first, as in del); when an
// ancestor is missing it sets *first to the first missing component and
// returns errAncestorMissing.
func (e *Engine) mkdirsFrom(tc *trace.Ctx, tx store.Tx, path string, comps []string, first *int) (namespace.INodeID, error) {
	leaf := len(comps) - 1
	end := 0 // the path of comps[:i] is path[:end]
	for _, c := range comps[:*first] {
		end += 1 + len(c)
	}
	now := e.clk.Now().UnixNano()
	var createdBuf [1]written // a leaf mkdirs creates one directory
	created := createdBuf[:0]
	var cur *namespace.INode
	for i := *first; i < len(comps); i++ {
		end += 1 + len(comps[i])
		curPath := path[:end]
		if len(created) == 0 {
			// One round trip: the deepest existing directory exclusive
			// (ancestors shared only, so sibling mkdirs serialize without
			// upgrades) plus this component's slot.
			locked, err := tx.LockPath(curPath)
			if errors.Is(err, namespace.ErrNotFound) && *first == leaf {
				*first = len(locked.Chain) - 1
				return 0, errAncestorMissing
			}
			if err != nil {
				return 0, err
			}
			existing := locked.Target
			if existing != nil && i == leaf {
				if !existing.IsDir {
					return 0, namespace.ErrExists
				}
				return existing.ID, nil
			}
			if cur, err = e.lockedParent(locked); err != nil {
				return 0, err
			}
			if existing != nil {
				// A concurrent mkdirs created this component since the
				// first lock phase: step into it and lock one level further
				// down.
				if !existing.IsDir {
					return 0, namespace.ErrNotDir
				}
				cur = existing
				continue
			}
		}
		// Absent under the parent's exclusive lock — or inside a directory
		// this transaction is itself creating, where nothing else can
		// exist: no store read needed.
		child := &namespace.INode{
			ID:       e.st.NextID(),
			ParentID: cur.ID,
			Name:     comps[i],
			IsDir:    true,
			Perm:     namespace.PermDefaultDir,
			Owner:    "hdfs",
			Group:    "hdfs",
			Mtime:    now,
			Ctime:    now,
		}
		if err := tx.PutINode(child); err != nil {
			return 0, err
		}
		if len(created) == 0 {
			// The existing parent's new version. A directory this
			// transaction created already carries now and was handed to the
			// store, so it is not written again.
			cur = cur.Clone()
			cur.Mtime = now
		}
		if err := tx.PutINode(cur); err != nil {
			return 0, err
		}
		created = append(created, written{path: curPath, parent: cur, child: child})
		cur = child
	}
	// Fresh directories cannot be cached anywhere; the INVs exist for the
	// listings the parents appear complete in, which is where the new
	// directories are owned — and only the first component's parent existed
	// before, so only its listing can be cached at all.
	return cur.ID, e.invalidateAll(tc, tx, created...)
}

// del deletes a file or (recursively) a directory, through delTx.
func (e *Engine) del(tc *trace.Ctx, path string) *namespace.Response {
	if path == "/" {
		return fail(namespace.ErrPermission)
	}
	return e.deleteOrMove(tc, namespace.OpDelete, path, func(tx store.Tx, root namespace.INodeID) (namespace.INodeID, error) {
		return e.delTx(tc, tx, path, root)
	})
}

// delTx is del's transaction (see deleteOrMove). What the path names is
// read under the transaction's own locks and decided before anything above
// it is checked (the client-visible precedence of the peek this replaced):
// a missing target is ErrNotFound; then subtree isolation applies to the
// chain. A directory is flagged for the subtree protocol; a file — or the
// flagged root, emptied — is deleted. mvTx follows the same order.
func (e *Engine) delTx(tc *trace.Ctx, tx store.Tx, path string, root namespace.INodeID) (namespace.INodeID, error) {
	locked, err := tx.LockPath(path)
	if err != nil {
		return namespace.InvalidID, err
	}
	target, err := lockedTarget(locked, root)
	if err != nil {
		return namespace.InvalidID, err
	}
	parent, err := e.lockedParent(locked)
	if err != nil {
		return namespace.InvalidID, err
	}
	if target.IsDir && root == namespace.InvalidID {
		return e.flagSubtree(tx, target, namespace.OpDelete, path)
	}
	if err := tx.DeleteINode(target.ID); err != nil {
		return namespace.InvalidID, err
	}
	if parent, err = touched(tx, parent, e.clk.Now().UnixNano()); err != nil {
		return namespace.InvalidID, err
	}
	return namespace.InvalidID, e.invalidateAll(tc, tx, written{path: path, parent: parent})
}

// lockedTarget is the row a delete or mv acts on: the locked path's target,
// which a run for a flagged root requires to be that root.
func lockedTarget(lp store.LockedPath, root namespace.INodeID) (*namespace.INode, error) {
	if lp.Target == nil || root != namespace.InvalidID && lp.Target.ID != root {
		return nil, namespace.ErrNotFound
	}
	return lp.Target, nil
}

// mv renames path to dest, through mvTx.
func (e *Engine) mv(tc *trace.Ctx, src, dest string) *namespace.Response {
	if src == "/" || dest == "/" {
		return fail(namespace.ErrPermission)
	}
	if namespace.HasPathPrefix(dest, src) {
		return fail(namespace.ErrMvIntoSelf)
	}
	return e.deleteOrMove(tc, namespace.OpMv, src, func(tx store.Tx, root namespace.INodeID) (namespace.INodeID, error) {
		return e.mvTx(tc, tx, src, dest, root)
	})
}

// mvTx is mv's transaction (see deleteOrMove): the single-INode coherence protocol
// across the source's and the destination's owner deployments (one and the
// same for a rename inside a directory), with both paths' rows locked in one
// LockPaths call, which also fixes their order against crossing moves and
// hands a parent both paths share out as one pointer. Both
// ends are checked, the destination name free included, before a directory
// source is flagged for the subtree protocol; a file — or the flagged root,
// quiesced, its flag cleared — is relinked.
func (e *Engine) mvTx(tc *trace.Ctx, tx store.Tx, src, dest string, root namespace.INodeID) (namespace.INodeID, error) {
	srcRows, destRows, err := tx.LockPaths(src, dest)
	if err != nil {
		return namespace.InvalidID, err
	}
	target, err := lockedTarget(srcRows, root)
	if err != nil {
		return namespace.InvalidID, err
	}
	srcParent, dstParent, err := e.lockedMvParents(srcRows, destRows)
	if err != nil {
		return namespace.InvalidID, err
	}
	if target.IsDir && root == namespace.InvalidID {
		return e.flagSubtree(tx, target, namespace.OpMv, src)
	}
	now := e.clk.Now().UnixNano()
	target = target.Clone()
	target.ParentID = dstParent.ID
	target.Name = namespace.BaseName(dest)
	target.SubtreeLockOwner = ""
	target.Mtime = now
	if err := tx.PutINode(target); err != nil {
		return namespace.InvalidID, err
	}
	if srcParent, err = touched(tx, srcParent, now); err != nil {
		return namespace.InvalidID, err
	}
	if dstParent.ID == srcParent.ID { // one row, one new version for both paths
		return namespace.InvalidID, e.invalidateAll(tc, tx, written{path: dest, gone: src, parent: srcParent, child: target})
	}
	if dstParent, err = touched(tx, dstParent, now); err != nil {
		return namespace.InvalidID, err
	}
	return namespace.InvalidID, e.invalidateAll(tc, tx,
		written{path: src, parent: srcParent},
		written{path: dest, parent: dstParent, child: target})
}

// lockedMvParents checks both ends of a rename whose rows LockPaths(src,
// dest) holds: subtree isolation along both chains, both parents
// directories, and the destination name free.
func (e *Engine) lockedMvParents(srcRows, destRows store.LockedPath) (srcParent, dstParent *namespace.INode, err error) {
	if srcParent, err = e.lockedParent(srcRows); err != nil {
		return nil, nil, err
	}
	if dstParent, err = e.lockedParent(destRows); err != nil {
		return nil, nil, err
	}
	if destRows.Target != nil {
		return nil, nil, namespace.ErrExists
	}
	return srcParent, dstParent, nil
}

// touched puts a new version of dir with its mtime set to now and returns
// it: a row the store hands out is never written, so the writer builds the
// next version from a Clone.
func touched(tx store.Tx, dir *namespace.INode, now int64) (*namespace.INode, error) {
	next := dir.Clone()
	next.Mtime = now
	return next, tx.PutINode(next)
}
