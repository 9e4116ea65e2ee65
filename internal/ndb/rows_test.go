package ndb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// checkRowBound reports how t's footprint breaks its bound: at most
// rowDirSlack directory entries past the most rows it has held, and no
// more pages, and no more far rows, than it holds rows. So no ID, however
// large, costs the table more than a page and a map entry.
func checkRowBound(t *rowTable) error {
	pages := 0
	for _, pg := range t.dir {
		if pg != nil {
			pages++
		}
	}
	if len(t.dir) > t.peak+rowDirSlack || pages > t.n || len(t.far) > t.n {
		return fmt.Errorf("row table of %d rows (at most %d) holds %d directory entries, %d pages and %d far rows",
			t.n, t.peak, len(t.dir), pages, len(t.far))
	}
	return nil
}

// TestRowTable holds the row table to a map under puts, replacements and
// deletes of dense IDs, IDs a page apart and IDs up to 2^64-1, in every
// order: the same rows, each in ID order, and the footprint bound after
// every step.
func TestRowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := func() namespace.INodeID {
		switch rng.Intn(4) {
		case 0:
			return namespace.INodeID(rng.Intn(2 * rowPageSize)) // dense
		case 1:
			return namespace.INodeID(rng.Intn(256) * rowPageSize) // a page apart
		case 2:
			return namespace.INodeID(rng.Uint64()) // anywhere
		}
		return namespace.INodeID(1<<63 + uint64(rng.Intn(4))) // near 2^63
	}
	for episode := 0; episode < 50; episode++ {
		var tab rowTable
		model := map[namespace.INodeID]*namespace.INode{}
		for step := 0; step < 400; step++ {
			id := ids()
			if rng.Intn(3) == 0 {
				tab.delete(id)
				delete(model, id)
			} else {
				n := &namespace.INode{ID: id, Size: int64(step)}
				tab.put(n)
				model[id] = n
			}
			if err := checkRowBound(&tab); err != nil {
				t.Fatalf("episode %d step %d: %v", episode, step, err)
			}
			if tab.len() != len(model) {
				t.Fatalf("episode %d step %d: %d rows, model %d", episode, step, tab.len(), len(model))
			}
		}
		for id, n := range model {
			if got := tab.get(id); got != n {
				t.Fatalf("episode %d: get(%d) = %v, want %v", episode, id, got, n)
			}
		}
		var order []namespace.INodeID
		tab.each(func(n *namespace.INode) { order = append(order, n.ID) })
		want := make([]namespace.INodeID, 0, len(model))
		for id := range model {
			want = append(want, id)
		}
		if slices.Sort(want); !slices.Equal(order, want) {
			t.Fatalf("episode %d: each visits %v, want %v", episode, order, want)
		}
	}
}

// A WAL record may name a row far past the IDs the store hands out — its
// ID 2^63, or past the record's own ID high-water mark. Recovery files it
// like any other row, and the row table stays within its bound: such a row
// costs it a map entry, not a directory reaching its ID. Both records are
// seeds of FuzzWALRecover.
func TestRecoverFarRowIDs(t *testing.T) {
	for _, id := range []namespace.INodeID{1 << 63, 1<<64 - 1, 1 << 32} {
		simtest.Run(t, func(clk *clock.Sim) {
			d := NewDurable(clk, 1, zeroLSM())
			rows := []*namespace.INode{
				{ID: 2, ParentID: namespace.RootID, Name: "near", IsDir: true},
				{ID: id, ParentID: 2, Name: "far", Perm: namespace.PermDefaultFile},
			}
			d.wals[0] = appendRecord(nil, &walRecord{lsn: 1, idHW: 2, puts: rows})
			db, rs, err := Recover(clk, durableCfg(d))
			if err != nil || rs.ReplayedRecords != 1 {
				t.Fatalf("row %d: recover replayed %d records: %v", id, rs.ReplayedRecords, err)
			}
			if got := db.inodes.get(id); got == nil || got.Name != "far" {
				t.Fatalf("row %d recovered as %v", id, got)
			}
			if bad := db.CheckIntegrity(); len(bad) > 0 {
				t.Fatalf("row %d: %v", id, bad)
			}
			if err := checkRowBound(&db.inodes); err != nil {
				t.Fatalf("row %d: %v", id, err)
			}
			if dir, far := len(db.inodes.dir), len(db.inodes.far); dir > rowDirSlack || far != 1 {
				t.Fatalf("row %d: %d directory entries and %d far rows, want at most %d and 1", id, dir, far, rowDirSlack)
			}
		})
	}
}
