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

// A WAL record may name a row far past the IDs the store hands out — past
// the record's own ID high-water mark, up to 2^63-1. Recovery files it like
// any other row, and the row table stays within its bound: such a row costs
// it a map entry, not a directory reaching its ID. A record naming a row of
// ID 2^63 or more, or an ID high-water mark there, is corrupt (idLimit):
// recovery cuts the log at it. Either way the allocator comes back above
// every recovered row, so NextID hands out neither 0, nor the root's ID,
// nor a row's. The records of IDs 2^63, 2^32 and 2^63-1 are seeds of
// FuzzWALRecover.
func TestRecoverFarRowIDs(t *testing.T) {
	for _, c := range []struct {
		id   namespace.INodeID
		idHW uint64
		kept bool
	}{
		{1 << 32, 2, true}, {1<<63 - 1, 2, true},
		{1 << 63, 2, false}, {1<<64 - 1, 2, false}, {1<<64 - 1, 1<<64 - 1, false}, {3, 1 << 63, false},
	} {
		simtest.Run(t, func(clk *clock.Sim) {
			d := NewDurable(clk, 1, zeroLSM())
			rows := []*namespace.INode{
				{ID: 2, ParentID: namespace.RootID, Name: "near", IsDir: true},
				{ID: c.id, ParentID: 2, Name: "far", Perm: namespace.PermDefaultFile},
			}
			d.wals[0] = appendRecord(nil, &walRecord{lsn: 1, idHW: c.idHW, puts: rows})
			db, rs, err := Recover(clk, durableCfg(d))
			if err != nil {
				t.Fatalf("row %d, high-water mark %d: %v", c.id, c.idHW, err)
			}
			replayed, far := 0, 0
			if c.kept {
				replayed, far = 1, 1
			}
			if rs.ReplayedRecords != replayed || rs.TruncatedShards != 1-replayed {
				t.Fatalf("row %d, high-water mark %d: recover replayed %d records and cut %d shards, want %d and %d",
					c.id, c.idHW, rs.ReplayedRecords, rs.TruncatedShards, replayed, 1-replayed)
			}
			if got := db.inodes.get(c.id); (got != nil && got.Name == "far") != c.kept {
				t.Fatalf("row %d, high-water mark %d recovered as %v, want it kept %v", c.id, c.idHW, got, c.kept)
			}
			if bad := db.CheckIntegrity(); len(bad) > 0 {
				t.Fatalf("row %d: %v", c.id, bad)
			}
			if err := checkRowBound(&db.inodes); err != nil {
				t.Fatalf("row %d: %v", c.id, err)
			}
			if dir, n := len(db.inodes.dir), len(db.inodes.far); dir > rowDirSlack || n != far {
				t.Fatalf("row %d: %d directory entries and %d far rows, want at most %d and %d", c.id, dir, n, rowDirSlack, far)
			}
			if err := checkNextID(db); err != nil {
				t.Fatalf("row %d, high-water mark %d: %v", c.id, c.idHW, err)
			}
		})
	}
}

// checkNextID fails unless the next IDs db hands out are fresh: neither 0,
// nor the root's ID, nor one a row holds.
func checkNextID(db *DB) error {
	for range 3 {
		id := db.NextID()
		if id == 0 || id == namespace.RootID || db.inodes.get(id) != nil {
			return fmt.Errorf("NextID handed out %d, which is 0, the root's or a row's", id)
		}
	}
	return nil
}
