package ndb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// storeModelCheck drives random single-op committed transactions against
// the store and checks the (parentID, name) → INode mapping against a
// flat model: the child index and the row table must stay a bijection
// under inserts, updates, moves, and deletes.
//
// With crashEvery > 0 the store runs on a durability tier and is
// crash-recovered (the live DB abandoned, a new one rebuilt from the
// media) every crashEvery ops; the model state must match after every
// recovery — every op here is a committed transaction, so recovery may
// not lose any of them.
func storeModelCheck(clk *clock.Sim, seed int64, crashEvery int) error {
	type key struct {
		parent namespace.INodeID
		name   string
	}
	rng := rand.New(rand.NewSource(seed))
	var db *DB
	var dur *Durable
	if crashEvery > 0 {
		dur = NewDurable(clk, 4, zeroLSM())
		db = New(clk, durableCfg(dur))
	} else {
		db = testDB(clk)
	}
	model := map[key]namespace.INodeID{} // slot -> id
	rev := map[namespace.INodeID]key{}   // id -> slot
	ids := []namespace.INodeID{}

	// verify sweeps the whole model against the store: every slot
	// resolves to its id, deleted ids are gone, row count matches.
	verify := func() error {
		tx := db.Begin("sweep")
		defer tx.Abort()
		for k, id := range model {
			n, err := getChild(tx, k.parent, k.name, store.LockNone)
			if err != nil || n.ID != id {
				return fmt.Errorf("slot (%d,%q): got %v err %v, want id %d", k.parent, k.name, n, err, id)
			}
			got, err := tx.GetINode(id, store.LockNone)
			if err != nil || got.ParentID != k.parent || got.Name != k.name {
				return fmt.Errorf("row %d: got %v err %v, want slot (%d,%q)", id, got, err, k.parent, k.name)
			}
		}
		if db.INodeCount() != 1+len(model) {
			return fmt.Errorf("row count %d, want %d", db.INodeCount(), 1+len(model))
		}
		for _, id := range ids {
			if _, live := rev[id]; live {
				continue
			}
			if _, err := tx.GetINode(id, store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
				return fmt.Errorf("deleted row %d still readable (err %v)", id, err)
			}
		}
		return nil
	}

	parentPool := []namespace.INodeID{namespace.RootID}
	for op := 0; op < 120; op++ {
		if crashEvery > 0 && op > 0 && op%crashEvery == 0 {
			// Crash: abandon the live store, recover from the media.
			recovered, rs, err := Recover(clk, durableCfg(dur))
			if err != nil {
				return fmt.Errorf("op %d: recover: %v", op, err)
			}
			db = recovered
			if msgs := db.CheckIntegrity(); len(msgs) != 0 {
				return fmt.Errorf("op %d: post-recovery integrity: %v", op, msgs)
			}
			if err := verify(); err != nil {
				return fmt.Errorf("op %d: post-recovery (stats %+v): %v", op, rs, err)
			}
		}
		tx := db.Begin("model")
		switch rng.Intn(4) {
		case 0: // insert
			parent := parentPool[rng.Intn(len(parentPool))]
			if _, live := rev[parent]; !live && parent != namespace.RootID {
				tx.Abort() // parent dir was deleted; an insert would orphan
				continue
			}
			name := fmt.Sprintf("n%d", rng.Intn(8))
			k := key{parent, name}
			if _, taken := model[k]; taken {
				tx.Abort()
				continue
			}
			id := db.NextID()
			isDir := rng.Intn(3) == 0
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: parent, Name: name, IsDir: isDir}); err != nil {
				return fmt.Errorf("op %d: put: %v", op, err)
			}
			if err := tx.Commit(); err != nil {
				return fmt.Errorf("op %d: commit: %v", op, err)
			}
			model[k] = id
			rev[id] = k
			ids = append(ids, id)
			if isDir {
				parentPool = append(parentPool, id)
			}
		case 1: // delete
			if len(ids) == 0 {
				tx.Abort()
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if _, live := rev[id]; !live {
				tx.Abort()
				continue
			}
			// Skip dirs that still have children in the model.
			hasKids := false
			for k := range model {
				if k.parent == id {
					hasKids = true
					break
				}
			}
			if hasKids {
				tx.Abort()
				continue
			}
			if err := tx.DeleteINode(id); err != nil {
				return fmt.Errorf("op %d: delete: %v", op, err)
			}
			if err := tx.Commit(); err != nil {
				return fmt.Errorf("op %d: commit: %v", op, err)
			}
			delete(model, rev[id])
			delete(rev, id)
		case 2: // move/rename
			if len(ids) == 0 {
				tx.Abort()
				continue
			}
			id := ids[rng.Intn(len(ids))]
			oldK, live := rev[id]
			if !live {
				tx.Abort()
				continue
			}
			newParent := parentPool[rng.Intn(len(parentPool))]
			if newParent == id {
				tx.Abort()
				continue
			}
			if _, live := rev[newParent]; !live && newParent != namespace.RootID {
				tx.Abort() // target dir was deleted; a move would orphan
				continue
			}
			// Moving a dir under its own descendant would detach a cycle.
			cycle := false
			for p := newParent; p != namespace.RootID; {
				if p == id {
					cycle = true
					break
				}
				k, ok := rev[p]
				if !ok {
					break
				}
				p = k.parent
			}
			if cycle {
				tx.Abort()
				continue
			}
			newK := key{newParent, fmt.Sprintf("m%d", rng.Intn(8))}
			if _, taken := model[newK]; taken {
				tx.Abort()
				continue
			}
			n, err := tx.GetINode(id, store.LockExclusive)
			if err != nil {
				return fmt.Errorf("op %d: get: %v", op, err)
			}
			n = n.Clone()
			n.ParentID = newK.parent
			n.Name = newK.name
			if err := tx.PutINode(n); err != nil {
				return fmt.Errorf("op %d: move: %v", op, err)
			}
			if err := tx.Commit(); err != nil {
				return fmt.Errorf("op %d: commit: %v", op, err)
			}
			delete(model, oldK)
			model[newK] = id
			rev[id] = newK
		case 3: // read + verify one random slot
			tx.Abort()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			k, live := rev[id]
			rtx := db.Begin("check")
			n, err := getChild(rtx, k.parent, k.name, store.LockNone)
			rtx.Abort()
			if live {
				if err != nil || n.ID != id {
					return fmt.Errorf("op %d: live slot (%d,%q) unreadable: %v", op, k.parent, k.name, err)
				}
			} else if err == nil && n.ID == id {
				return fmt.Errorf("op %d: dead id %d resurrected", op, id)
			}
		}
	}

	if err := verify(); err != nil {
		return err
	}
	if db.HeldLocks() != 0 {
		return fmt.Errorf("%d locks leaked", db.HeldLocks())
	}
	return nil
}

func TestStoreMatchesModelRandomCommits(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		f := func(seed int64) bool {
			if err := storeModelCheck(clk, seed, 0); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreMatchesModelWithCrashRecoverCycles(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Same property with the durability tier on and a crash-recover
		// cycle interleaved every 15 ops: every op is a committed
		// transaction, so recovery must reproduce the model exactly after
		// each cycle.
		f := func(seed int64) bool {
			if err := storeModelCheck(clk, seed, 15); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatal(err)
		}
	})
}
