package ndb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lambdafs/internal/childindex"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

func testDB(clk *clock.Sim) *DB {
	cfg := DefaultConfig()
	cfg.RTT = 0
	cfg.ReadService = 0
	cfg.WriteService = 0
	cfg.LockWaitTimeout = 100 * time.Millisecond
	return New(clk, cfg)
}

func mustCommit(t *testing.T, tx store.Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func addFile(t *testing.T, db *DB, parent namespace.INodeID, name string) namespace.INodeID {
	t.Helper()
	id := db.NextID()
	tx := db.Begin("test")
	err := tx.PutINode(&namespace.INode{ID: id, ParentID: parent, Name: name, Perm: namespace.PermDefaultFile})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	mustCommit(t, tx)
	return id
}

func addDir(t *testing.T, db *DB, parent namespace.INodeID, name string) namespace.INodeID {
	t.Helper()
	id := db.NextID()
	tx := db.Begin("test")
	if err := tx.PutINode(&namespace.INode{ID: id, ParentID: parent, Name: name, IsDir: true, Perm: namespace.PermDefaultDir}); err != nil {
		t.Fatalf("put dir: %v", err)
	}
	mustCommit(t, tx)
	return id
}

func TestRootExists(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		defer tx.Abort()
		root, err := tx.GetINode(namespace.RootID, store.LockNone)
		if err != nil || !root.IsDir {
			t.Fatalf("root: %v %v", root, err)
		}
	})
}

// getChild looks a row up by name the way LockPath takes a name it decides
// on — slot first, then the row — which nothing does through store.Tx alone.
func getChild(t store.Tx, parent namespace.INodeID, name string, mode store.LockMode) (*namespace.INode, error) {
	return t.(*tx).lockChild(parent, name, mode, true)
}

func TestPutGetChild(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "a.txt")
		tx := db.Begin("t")
		defer tx.Abort()
		n, err := getChild(tx, namespace.RootID, "a.txt", store.LockNone)
		if err != nil {
			t.Fatalf("get child: %v", err)
		}
		if n.ID != id || n.Name != "a.txt" {
			t.Fatalf("wrong child: %v", n)
		}
		if _, err := getChild(tx, namespace.RootID, "missing", store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatalf("missing child err = %v", err)
		}
	})
}

func TestTxReadYourWrites(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		id := db.NextID()
		if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID, Name: "x"}); err != nil {
			t.Fatal(err)
		}
		if n, err := tx.GetINode(id, store.LockNone); err != nil || n.Name != "x" {
			t.Fatalf("read own write: %v %v", n, err)
		}
		if n, err := getChild(tx, namespace.RootID, "x", store.LockNone); err != nil || n.ID != id {
			t.Fatalf("read own child: %v %v", n, err)
		}
		if err := tx.DeleteINode(id); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.GetINode(id, store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatalf("deleted row visible: %v", err)
		}
		mustCommit(t, tx)
		// Nothing should have been created.
		tx2 := db.Begin("t")
		defer tx2.Abort()
		if _, err := getChild(tx2, namespace.RootID, "x", store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatalf("phantom row after put+delete commit: %v", err)
		}
	})
}

// TestTxRewritesOneRow: a transaction that writes one row several times —
// put→delete→put, delete→put, a rename, a delete whose name a new row takes
// — reads back its last write through every buffered read (row,
// bufferedChild, childrenOf), once; the commit publishes exactly the
// pointers it was handed; and the WAL replays to the live store.
func TestTxRewritesOneRow(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 2, zeroLSM())
		db := New(clk, durableCfg(d))
		dir := addDir(t, db, namespace.RootID, "d")
		old := addFile(t, db, dir, "old")   // deleted, then put back renamed
		gone := addFile(t, db, dir, "gone") // deleted; a new row takes its name
		kept := addFile(t, db, dir, "kept") // renamed through a clone of its exclusive read

		w := db.Begin("w").(*tx)
		put := func(n *namespace.INode) *namespace.INode {
			t.Helper()
			if err := w.PutINode(n); err != nil {
				t.Fatal(err)
			}
			return n
		}
		del := func(id namespace.INodeID) {
			t.Helper()
			if err := w.DeleteINode(id); err != nil {
				t.Fatal(err)
			}
		}
		fresh := db.NextID()
		put(&namespace.INode{ID: fresh, ParentID: dir, Name: "y"})
		del(fresh)
		y := put(&namespace.INode{ID: fresh, ParentID: dir, Name: "y", Size: 2})
		del(old)
		renamed := put(&namespace.INode{ID: old, ParentID: dir, Name: "renamed"})
		del(gone)
		reused := put(&namespace.INode{ID: db.NextID(), ParentID: dir, Name: "gone"})
		k, err := w.GetINode(kept, store.LockExclusive)
		if err != nil {
			t.Fatal(err)
		}
		k = k.Clone()
		k.Name = "kept2"
		k = put(k)
		want := map[string]*namespace.INode{"gone": reused, "kept2": k, "renamed": renamed, "y": y}

		check := func(when string, r *tx) {
			t.Helper()
			for name, n := range want {
				if got := r.row(n.ID); got != n {
					t.Errorf("%s: row(%d) = %v, want the row put as %q", when, n.ID, got, name)
				}
				if got, err := getChild(r, dir, name, store.LockNone); err != nil || got != n {
					t.Errorf("%s: child %q = %v, %v, want the row put", when, name, got, err)
				}
			}
			for _, name := range []string{"old", "kept"} {
				if got, err := getChild(r, dir, name, store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
					t.Errorf("%s: child %q = %v, %v, want ErrNotFound", when, name, got, err)
				}
			}
			if got := r.row(gone); got != nil {
				t.Errorf("%s: deleted row %d reads back as %v", when, gone, got)
			}
			var names []string
			for _, n := range r.childrenOf(dir) {
				if n != want[n.Name] {
					t.Errorf("%s: listing has %v, not the row put as %q", when, n, n.Name)
				}
				names = append(names, n.Name)
			}
			if wantNames := []string{"gone", "kept2", "renamed", "y"}; !slices.Equal(names, wantNames) {
				t.Errorf("%s: listing = %v, want %v", when, names, wantNames)
			}
		}
		check("buffered", w)
		if got := w.bufferedChild(dir, "renamed"); got != renamed {
			t.Errorf("bufferedChild(renamed) = %v, want the row put", got)
		}
		if got := w.bufferedChild(dir, "old"); got != nil {
			t.Errorf("bufferedChild(old) = %v, want none: the row was renamed", got)
		}
		mustCommit(t, w)

		for name, n := range want {
			if got := db.inodes.get(n.ID); got != n {
				t.Errorf("committed %q is %p, want the pointer put, %p", name, got, n)
			}
		}
		r := db.Begin("r").(*tx)
		check("committed", r)
		r.Abort()

		recovered, _, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if got, live := stateDigest(recovered), stateDigest(db); got != live {
			t.Fatalf("WAL replay diverged from the live store\n got: %s\nwant: %s", got, live)
		}
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		id := db.NextID()
		if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID, Name: "gone"}); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		tx2 := db.Begin("t")
		defer tx2.Abort()
		if _, err := getChild(tx2, namespace.RootID, "gone", store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatal("aborted write became visible")
		}
		if db.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", db.HeldLocks())
		}
	})
}

func TestUseAfterFinish(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		mustCommit(t, tx)
		if _, err := tx.GetINode(namespace.RootID, store.LockNone); !errors.Is(err, store.ErrTxDone) {
			t.Fatalf("err = %v, want ErrTxDone", err)
		}
		if err := tx.Commit(); !errors.Is(err, store.ErrTxDone) {
			t.Fatalf("double commit err = %v", err)
		}
		tx.Abort() // must not panic
	})
}

func TestMoveUpdatesChildIndex(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		dirA := addDir(t, db, namespace.RootID, "a")
		dirB := addDir(t, db, namespace.RootID, "b")
		id := addFile(t, db, dirA, "f")

		tx := db.Begin("t")
		n, err := tx.GetINode(id, store.LockExclusive)
		if err != nil {
			t.Fatal(err)
		}
		n = n.Clone()
		n.ParentID = dirB
		n.Name = "g"
		if err := tx.PutINode(n); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)

		tx2 := db.Begin("t")
		defer tx2.Abort()
		if _, err := getChild(tx2, dirA, "f", store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatal("old child entry survived the move")
		}
		got, err := getChild(tx2, dirB, "g", store.LockNone)
		if err != nil || got.ID != id {
			t.Fatalf("moved child not found: %v %v", got, err)
		}
	})
}

func TestDeleteRemovesRowAndIndex(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "dead")
		tx := db.Begin("t")
		if err := tx.DeleteINode(id); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tx2 := db.Begin("t")
		defer tx2.Abort()
		if _, err := tx2.GetINode(id, store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatal("deleted inode still readable")
		}
		if _, err := getChild(tx2, namespace.RootID, "dead", store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatal("deleted child index entry survived")
		}
	})
}

// TestChildListsStaySorted: a directory's child list is sorted by name
// however its rows arrive — a preload in reverse name order, commits that
// insert, rename and delete — so every name is found by binary search and
// the audit finds nothing.
func TestChildListsStaySorted(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		const dir = namespace.INodeID(100)
		nodes := []*namespace.INode{{ID: dir, ParentID: namespace.RootID, Name: "d", IsDir: true}}
		for i := 50; i > 0; i-- {
			nodes = append(nodes, &namespace.INode{ID: dir + namespace.INodeID(i), ParentID: dir, Name: fmt.Sprintf("f%02d", i)})
		}
		db.Preload(nodes)
		addFile(t, db, dir, "f25x")
		addFile(t, db, dir, "a")
		tx := db.Begin("t")
		if err := tx.DeleteINode(dir + 10); err != nil {
			t.Fatal(err)
		}
		if err := tx.PutINode(&namespace.INode{ID: dir + 20, ParentID: dir, Name: "z"}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if bad := db.CheckIntegrity(); len(bad) != 0 {
			t.Fatalf("integrity: %v", bad)
		}
		names := []string{"a", "f25x", "z"}
		for i := 1; i <= 50; i++ {
			if i != 10 && i != 20 {
				names = append(names, fmt.Sprintf("f%02d", i))
			}
		}
		for _, name := range names {
			if _, ok := db.child(dir, name); !ok {
				t.Errorf("%q not found", name)
			}
		}
		for _, gone := range []string{"f10", "f20"} {
			if _, ok := db.child(dir, gone); ok {
				t.Errorf("%q still filed", gone)
			}
		}
		if got := db.children[dir].Len(); got != len(names) {
			t.Errorf("child list holds %d entries, want %d", got, len(names))
		}
	})
}

// childName is the k-th of a name set that orders both by childindex.Key alone
// (short names) and by the names past their first eight bytes (a shared
// long prefix, and zero bytes the key's padding cannot tell apart).
func childName(k int) string {
	switch k % 3 {
	case 0:
		return fmt.Sprintf("n%03d", k)
	case 1:
		return fmt.Sprintf("shared-prefix-%03d", k)
	}
	return strings.Repeat("\x00", k%5) + fmt.Sprintf("%c", 'a'+k%7)
}

// TestChildListMatchesSortedModel runs random inserts, renames and removes
// on one child list, across chunk splits and chunk removals, against a map
// and checks after each that the list holds exactly the map's entries in
// name order, in chunks none over childindex.MaxChunk and none empty but a lone one,
// and that find agrees with the map for names present and absent.
func TestChildListMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l childList
	model := map[string]namespace.INodeID{}
	for step := 0; step < 20000; step++ {
		name := childName(rng.Intn(400))
		id := namespace.INodeID(1 + rng.Intn(1<<20))
		switch {
		case rng.Intn(3) > 0 && step < 12000, step%7 == 0:
			l = l.Insert(childindex.NewEntry(name, id), nil)
			model[name] = id
		default:
			if old, ok := model[name]; ok && rng.Intn(4) > 0 {
				id = old
			}
			l = l.Remove(name, id, nil)
			if model[name] == id {
				delete(model, name)
			}
		}
		var got []string
		for ci, c := range l {
			if (len(c) == 0 && len(l) > 1) || len(c) > childindex.MaxChunk {
				t.Fatalf("step %d: chunk %d holds %d entries", step, ci, len(c))
			}
			for _, e := range c {
				if model[e.Name] != e.Val {
					t.Fatalf("step %d: %q -> %d, model %d", step, e.Name, e.Val, model[e.Name])
				}
				got = append(got, e.Name)
			}
		}
		if !slices.IsSorted(got) || len(got) != len(model) || l.Len() != len(model) {
			t.Fatalf("step %d: %d names (sorted %v, len %d), model %d", step, len(got), slices.IsSorted(got), l.Len(), len(model))
		}
		probe := childName(rng.Intn(420))
		if id, ok := l.Find(probe); ok != (model[probe] != 0) || id != model[probe] {
			t.Fatalf("step %d: find(%q) = %d, %v; model %d", step, probe, id, ok, model[probe])
		}
	}
	// Emptied, the list keeps one chunk's storage and takes entries again.
	for name, id := range model {
		l = l.Remove(name, id, nil)
	}
	if l.Len() != 0 || len(l) != 1 {
		t.Fatalf("emptied list: %d entries in %d chunks, want 0 in 1", l.Len(), len(l))
	}
	if l = l.Insert(childindex.NewEntry("x", namespace.INodeID(7)), nil); l.Len() != 1 {
		t.Fatalf("insert into an emptied list: %d entries", l.Len())
	}
	if id, ok := l.Find("x"); !ok || id != 7 {
		t.Fatalf("find after refill: %d, %v", id, ok)
	}
}

// TestCheckIntegrityFlagsUnsortedChildList: binary search needs every child
// list strictly sorted by name and no chunk empty, so the audit flags two
// swapped entries, a name filed twice and an empty chunk.
func TestCheckIntegrityFlagsUnsortedChildList(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		dir := addDir(t, db, namespace.RootID, "d")
		for _, name := range []string{"a", "b", "c"} {
			addFile(t, db, dir, name)
		}
		if bad := db.CheckIntegrity(); len(bad) != 0 {
			t.Fatalf("integrity before the swap: %v", bad)
		}
		kids := db.children[dir][0]
		kids[0], kids[1] = kids[1], kids[0]
		if bad := db.CheckIntegrity(); len(bad) != 1 || !strings.Contains(bad[0], `out of order: "b" before "a"`) {
			t.Errorf("integrity after swapping a and b: %v", bad)
		}
		kids[0], kids[1] = kids[1], kids[0]
		db.children[dir][0] = slices.Insert(kids, 1, kids[0])
		if bad := db.CheckIntegrity(); len(bad) != 1 || !strings.Contains(bad[0], `out of order: "a" before "a"`) {
			t.Errorf("integrity with a filed twice: %v", bad)
		}
		db.children[dir] = append(db.children[dir], nil)
		if bad := db.CheckIntegrity(); len(bad) != 2 || !strings.Contains(bad[0], "a chunk of 0 entries") {
			t.Errorf("integrity with an empty chunk: %v", bad)
		}
	})
}

// TestListChildrenSortedAndMerged: the children ListPathBatched returns are
// the committed ones merged with the transaction's own buffered writes —
// puts, deletes, renames inside the directory and moves out of it — in
// name order: a buffered create lands in its sorted place, first, between
// two committed names or last. Every listing in a transaction gets storage
// of its own, so an earlier reply still reads the same.
func TestListChildrenSortedAndMerged(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		other := addDir(t, db, namespace.RootID, "other")
		addFile(t, db, namespace.RootID, "b")
		addFile(t, db, namespace.RootID, "a")
		dead := addFile(t, db, namespace.RootID, "dead")
		moved := addFile(t, db, namespace.RootID, "moved")
		renamed := addFile(t, db, namespace.RootID, "renamed")
		addFile(t, db, addDir(t, db, namespace.RootID, "more"), "x")
		var want []string
		for i := 0; i < 20; i++ { // past the transaction's inline buffer
			name := fmt.Sprintf("f%02d", 2*i)
			addFile(t, db, namespace.RootID, name)
			want = append(want, name)
		}
		tx := db.Begin("t")
		defer tx.Abort()
		for _, name := range []string{"c", "0first", "f07", "zz-last"} {
			if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.DeleteINode(dead); err != nil {
			t.Fatal(err)
		}
		if err := tx.PutINode(&namespace.INode{ID: moved, ParentID: other, Name: "moved"}); err != nil {
			t.Fatal(err)
		}
		if err := tx.PutINode(&namespace.INode{ID: renamed, ParentID: namespace.RootID, Name: "e"}); err != nil {
			t.Fatal(err)
		}
		want = append(want, "0first", "a", "b", "c", "e", "f07", "more", "other", "zz-last")
		slices.Sort(want)
		names := func(kids []*namespace.INode) []string {
			out := make([]string, len(kids))
			for i, k := range kids {
				out[i] = k.Name
			}
			return out
		}
		chain, kids, err := tx.ListPathBatched("/", store.LockShared)
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != 1 || chain[0].ID != namespace.RootID {
			t.Fatalf("chain = %v, want the root alone", chain)
		}
		if got := names(kids); !slices.Equal(got, want) {
			t.Fatalf("children = %v, want %v", got, want)
		}
		_, first, err := tx.ListPathBatched("/other", store.LockShared)
		if err != nil {
			t.Fatal(err)
		}
		if _, second, err := tx.ListPathBatched("/more", store.LockShared); err != nil || !slices.Equal(names(second), []string{"x"}) {
			t.Fatalf("ls /more = %v, %v; want [x]", names(second), err)
		}
		if got := names(first); !slices.Equal(got, []string{"moved"}) {
			t.Fatalf("after two more listings ls /other reads %v, want [moved]", got)
		}
		if got := names(kids); !slices.Equal(got, want) {
			t.Fatalf("after two more listings ls / reads %v, want %v", got, want)
		}
	})
}

// TestListPathBatchedOneRound: a listing is one multi-get whatever it
// returns — chain and children of a directory, the chain alone for a file,
// the partial chain for a missing path — one read, one resolve hop, one
// batched resolve; and its virtual cost is the round trip plus the batches
// of the busiest shard, the directory's children counted on the
// directory's own shard.
func TestListPathBatchedOneRound(t *testing.T) {
	sim := simtest.New(t)
	cfg := DefaultConfig()
	db := New(sim, cfg)
	const kids = batchRows + 1 // a second batch on d's shard
	var a, dir, f00 namespace.INodeID
	clock.Run(sim, func() {
		a = addDir(t, db, namespace.RootID, "a")
		dir = addDir(t, db, a, "d")
		f00 = addFile(t, db, dir, "f00")
		for i := 1; i < kids; i++ {
			addFile(t, db, dir, fmt.Sprintf("f%02d", i))
		}
	})
	// rows[shard] of ls /a/d: the three chain rows, and the children beside d.
	rows := make([]int, len(db.shards))
	for _, id := range []namespace.INodeID{namespace.RootID, a, dir} {
		rows[db.shardFor(inodeKey(id))]++
	}
	fileRows := slices.Clone(rows) // ls /a/d/f00: one more chain row, no children
	fileRows[db.shardFor(inodeKey(f00))]++
	missRows := slices.Clone(rows) // ls /a/d/nope: the missing name's slot
	missRows[db.shardFor(childKey(dir, "nope"))]++
	rows[db.shardFor(inodeKey(dir))] += kids
	cost := func(rows []int) time.Duration {
		busiest := 0
		for _, n := range rows {
			busiest = max(busiest, (n+batchRows-1)/batchRows)
		}
		return cfg.RTT + time.Duration(busiest)*cfg.ReadService
	}
	for _, c := range []struct {
		path      string
		mode      store.LockMode
		chain     int
		kids      int
		err       error
		wantDelay time.Duration
	}{
		{"/a/d", store.LockShared, 3, kids, nil, cost(rows)},
		{"/a/d", store.LockNone, 3, kids, nil, cost(rows)},
		{"/a/d/f00", store.LockShared, 4, 0, nil, cost(fileRows)},
		{"/a/d/nope", store.LockShared, 3, 0, namespace.ErrNotFound, cost(missRows)},
	} {
		before := db.Stats()
		var took time.Duration
		clock.Run(sim, func() {
			tx := db.Begin("t")
			defer tx.Abort()
			start := sim.Now()
			chain, kids, err := tx.ListPathBatched(c.path, c.mode)
			took = sim.Since(start)
			if !errors.Is(err, c.err) || len(chain) != c.chain || len(kids) != c.kids {
				t.Errorf("ls %s (%v): %d chain rows, %d children, err %v; want %d, %d, %v",
					c.path, c.mode, len(chain), len(kids), err, c.chain, c.kids, c.err)
			}
			if c.path == "/a/d" && c.mode == store.LockShared && db.HeldLocks() != 4 {
				t.Errorf("shared ls holds %d locks, want 4: the chain's rows and the directory's name slot", db.HeldLocks())
			}
		})
		after := db.Stats()
		if r, h, b := after.Reads-before.Reads, after.ResolveHops-before.ResolveHops,
			after.BatchedResolves-before.BatchedResolves; r != 1 || h != 1 || b != 1 {
			t.Errorf("ls %s (%v): %d reads, %d hops, %d batched resolves; want 1 each", c.path, c.mode, r, h, b)
		}
		if took != c.wantDelay {
			t.Errorf("ls %s (%v) took %v, want %v", c.path, c.mode, took, c.wantDelay)
		}
	}
	if cost(rows) < cfg.RTT+2*cfg.ReadService {
		t.Fatalf("fixture: %d children at %d rows a batch must cost 2 batches, got %v", kids, batchRows, cost(rows))
	}
	if db.HeldLocks() != 0 {
		t.Fatalf("locks leaked: %d", db.HeldLocks())
	}
}

// TestCommitPointHooks: AtCommitPoint hooks run once, in order: with true
// inside a successful Commit — the writes visible, the locks still held —
// and with false on an abort or a failed commit, the locks still held too.
func TestCommitPointHooks(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.RTT, cfg.ReadService, cfg.WriteService = 0, 0, 0
		failCommit := false
		cfg.OnCommit = func(string) error {
			if failCommit {
				return errors.New("injected")
			}
			return nil
		}
		db := New(clk, cfg)
		put := func(tx store.Tx, name string) {
			t.Helper()
			if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		var ran []string
		tx := db.Begin("t")
		put(tx, "x")
		tx.AtCommitPoint(func(committed bool) {
			if !committed {
				t.Error("first hook: told the successful commit did not commit")
			}
			if _, err := db.ResolvePath("/x"); err != nil {
				t.Errorf("first hook: the write is not applied yet: %v", err)
			}
			if db.HeldLocks() == 0 {
				t.Error("first hook: the locks are already released")
			}
			ran = append(ran, "first")
		})
		tx.AtCommitPoint(func(bool) { ran = append(ran, "second") })
		mustCommit(t, tx)
		if !slices.Equal(ran, []string{"first", "second"}) {
			t.Fatalf("hooks ran %v, want first then second", ran)
		}
		tx.Abort() // after Commit: a no-op, and no second run
		for _, end := range []string{"abort", "failed commit"} {
			tx := db.Begin("t")
			put(tx, "y")
			var ends []bool
			tx.AtCommitPoint(func(committed bool) {
				if db.HeldLocks() == 0 {
					t.Errorf("hook on %s: the locks are already released", end)
				}
				ends = append(ends, committed)
			})
			if end == "abort" {
				tx.Abort()
			} else {
				failCommit = true
				if err := tx.Commit(); err == nil {
					t.Fatal("injected commit failure did not surface")
				}
				failCommit = false
			}
			tx.Abort() // ended already: a no-op, and no second run
			if !slices.Equal(ends, []bool{false}) {
				t.Errorf("hook on %s ran with %v, want once with false", end, ends)
			}
		}
		if db.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", db.HeldLocks())
		}
	})
}

func TestResolvePath(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		a := addDir(t, db, namespace.RootID, "a")
		b := addDir(t, db, a, "b")
		f := addFile(t, db, b, "f.txt")

		chain, err := db.ResolvePath("/a/b/f.txt")
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != 4 {
			t.Fatalf("chain length %d", len(chain))
		}
		wantIDs := []namespace.INodeID{namespace.RootID, a, b, f}
		for i, n := range chain {
			if n.ID != wantIDs[i] {
				t.Fatalf("chain[%d] = %v, want id %d", i, n, wantIDs[i])
			}
		}
		// Partial resolution.
		chain, err = db.ResolvePath("/a/b/missing")
		if !errors.Is(err, namespace.ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
		if len(chain) != 3 {
			t.Fatalf("partial chain length %d", len(chain))
		}
		if _, err := db.ResolvePath("relative"); !errors.Is(err, namespace.ErrInvalidPath) {
			t.Fatal("relative path accepted")
		}
	})
}

func TestListSubtree(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		a := addDir(t, db, namespace.RootID, "a")
		b := addDir(t, db, a, "b")
		addFile(t, db, a, "f1")
		addFile(t, db, b, "f2")
		nodes, err := db.ListSubtree(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 4 {
			t.Fatalf("subtree size %d, want 4", len(nodes))
		}
		if nodes[0].ID != a {
			t.Fatal("BFS should start at the root of the subtree")
		}
		if _, err := db.ListSubtree(999); !errors.Is(err, namespace.ErrNotFound) {
			t.Fatal("missing subtree root accepted")
		}
	})
}

// TestListSubtreeOrderIsSortedBFS: a directory's child list is in name
// order, but a subtree listing is cut into batches whose latency is
// modelled, so both listings must come back in one order every time: BFS,
// each node's children by ascending ID.
func TestListSubtreeOrderIsSortedBFS(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		const fan = 64
		top := addDir(t, db, namespace.RootID, "top")
		nodes := []*namespace.INode{}
		id := namespace.INodeID(1000)
		want := []namespace.INodeID{top}
		var mids, leaves []namespace.INodeID
		for d := 0; d < fan; d++ {
			mid := id
			id++
			// Names descend while IDs ascend: name order is not the answer.
			nodes = append(nodes, &namespace.INode{ID: mid, ParentID: top, Name: fmt.Sprintf("d%02d", fan-d), IsDir: true})
			mids = append(mids, mid)
		}
		for _, mid := range mids {
			for f := 0; f < fan; f++ {
				nodes = append(nodes, &namespace.INode{ID: id, ParentID: mid, Name: fmt.Sprintf("f%02d", fan-f)})
				leaves = append(leaves, id)
				id++
			}
		}
		db.Preload(nodes)
		want = append(append(want, mids...), leaves...)
		ids := func(list []*namespace.INode, err error) []namespace.INodeID {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			out := make([]namespace.INodeID, len(list))
			for i, n := range list {
				out[i] = n.ID
			}
			return out
		}
		for round := 0; round < 2; round++ {
			if got := ids(db.ListSubtree(top)); !slices.Equal(got, want) {
				t.Fatalf("ListSubtree, listing %d: not the sorted BFS (first difference at %d)", round, firstDiff(got, want))
			}
			if got := ids(db.ListSubtreeBatched(top, nil)); !slices.Equal(got, want) {
				t.Fatalf("ListSubtreeBatched, listing %d: not the sorted BFS (first difference at %d)", round, firstDiff(got, want))
			}
		}
	})
}

func firstDiff(a, b []namespace.INodeID) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// testTable is a KV table of the tests' own.
const testTable = "test_kv"

func TestKVOps(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		if err := tx.KVPut(testTable, "dn1", []byte("alive")); err != nil {
			t.Fatal(err)
		}
		if got, err := tx.KVScan(testTable, "dn1"); err != nil || len(got) != 1 || string(got["dn1"]) != "alive" {
			t.Fatalf("read own kv write: %q %v", got, err)
		}
		mustCommit(t, tx)

		tx2 := db.Begin("t")
		if got, _ := tx2.KVScan(testTable, "dn1"); len(got) != 1 || string(got["dn1"]) != "alive" {
			t.Fatalf("committed kv missing: %q", got)
		}
		if err := tx2.KVPut(testTable, "dn2", []byte("x")); err != nil {
			t.Fatal(err)
		}
		scan, err := tx2.KVScan(testTable, "dn")
		if err != nil || len(scan) != 2 {
			t.Fatalf("scan = %v, %v", scan, err)
		}
		if err := tx2.KVDelete(testTable, "dn1"); err != nil {
			t.Fatal(err)
		}
		scan, _ = tx2.KVScan(testTable, "dn")
		if len(scan) != 1 {
			t.Fatalf("scan after buffered delete = %v", scan)
		}
		mustCommit(t, tx2)

		tx3 := db.Begin("t")
		defer tx3.Abort()
		if got, _ := tx3.KVScan(testTable, "dn1"); len(got) != 0 {
			t.Fatalf("deleted kv still present: %q", got)
		}
	})
}

func TestExclusiveLockBlocksSecondWriter(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "locked")

		tx1 := db.Begin("w1")
		if _, err := tx1.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		tx2 := db.Begin("w2")
		start := clk.Now()
		_, err := tx2.GetINode(id, store.LockExclusive)
		if !errors.Is(err, store.ErrLockTimeout) {
			t.Fatalf("second writer got lock: %v", err)
		}
		if waited := clk.Since(start); waited != 100*time.Millisecond {
			t.Fatalf("lock wait timed out after %v, want the configured 100ms", waited)
		}
		tx2.Abort()
		tx1.Abort()

		// After release the lock is acquirable.
		tx3 := db.Begin("w3")
		if _, err := tx3.GetINode(id, store.LockExclusive); err != nil {
			t.Fatalf("lock not released: %v", err)
		}
		tx3.Abort()
	})
}

func TestSharedLocksCompatible(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "shared")
		tx1 := db.Begin("r1")
		tx2 := db.Begin("r2")
		if _, err := tx1.GetINode(id, store.LockShared); err != nil {
			t.Fatal(err)
		}
		if _, err := tx2.GetINode(id, store.LockShared); err != nil {
			t.Fatalf("shared locks should be compatible: %v", err)
		}
		// A writer must block while readers hold the lock.
		tx3 := db.Begin("w")
		if _, err := tx3.GetINode(id, store.LockExclusive); !errors.Is(err, store.ErrLockTimeout) {
			t.Fatalf("writer acquired lock under readers: %v", err)
		}
		tx3.Abort()
		tx1.Abort()
		tx2.Abort()
	})
}

func TestLockUpgrade(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "up")
		tx := db.Begin("t")
		if _, err := tx.GetINode(id, store.LockShared); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.GetINode(id, store.LockExclusive); err != nil {
			t.Fatalf("sole shared holder could not upgrade: %v", err)
		}
		tx.Abort()
	})
}

func TestWriterWakesWhenReaderReleases(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "wake")
		tx1 := db.Begin("r")
		if _, err := tx1.GetINode(id, store.LockShared); err != nil {
			t.Fatal(err)
		}
		var err error
		var wokenAt time.Duration
		writer := clock.NewGroup(clk)
		writer.Go(func() {
			tx2 := db.Begin("w")
			_, err = tx2.GetINode(id, store.LockExclusive)
			wokenAt = clk.Since(clock.Epoch)
			tx2.Abort()
		})
		clk.Sleep(10 * time.Millisecond) // the writer is parked on the row
		tx1.Abort()
		writer.Wait()
		if err != nil || wokenAt != 10*time.Millisecond {
			t.Fatalf("writer woken at %v with %v, want at the release instant 10ms", wokenAt, err)
		}
	})
}

func TestReleaseOwnerBreaksCrashedLocks(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "crash")
		crashed := db.Begin("nn-dead")
		if _, err := crashed.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		// Simulated crash: coordinator detects and releases.
		db.ReleaseOwner("nn-dead")
		tx := db.Begin("nn-live")
		if _, err := tx.GetINode(id, store.LockExclusive); err != nil {
			t.Fatalf("crashed owner's lock not broken: %v", err)
		}
		tx.Abort()
	})
}

// A fenced owner's transactions do nothing more. One open at the crash,
// which put a row before it, fails its next read, lock request and Commit
// with store.ErrFenced and publishes nothing; so does one the owner begins
// afterwards. A commit already sleeping through its round when the fence
// lands applies nothing either, and releases its locks.
func TestReleaseOwnerFencesTransactions(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.RTT = time.Millisecond // a commit's round takes time the fence can land in
		db := New(clk, cfg)
		id := addFile(t, db, namespace.RootID, "fenced")
		open := db.Begin("nn-dead")
		if _, err := open.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		if err := open.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: "zombie"}); err != nil {
			t.Fatal(err)
		}
		db.ReleaseOwner("nn-dead")
		if db.HeldLocks() != 0 {
			t.Fatalf("%d locks held after the fence", db.HeldLocks())
		}
		if _, err := open.GetINode(id, store.LockNone); !errors.Is(err, store.ErrFenced) {
			t.Errorf("read after the fence: %v, want ErrFenced", err)
		}
		if err := open.DeleteINode(id); !errors.Is(err, store.ErrFenced) {
			t.Errorf("lock request after the fence: %v, want ErrFenced", err)
		}
		if err := open.Commit(); !errors.Is(err, store.ErrFenced) {
			t.Errorf("commit after the fence: %v, want ErrFenced", err)
		}
		later := db.Begin("nn-dead")
		if _, err := later.ResolvePathBatched("/fenced", store.LockNone, store.LockNone); !errors.Is(err, store.ErrFenced) {
			t.Errorf("a later transaction's read: %v, want ErrFenced", err)
		}
		later.Abort()

		// A commit in flight: its owner is fenced during the round.
		mid := db.Begin("nn-mid")
		if err := mid.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: "mid"}); err != nil {
			t.Fatal(err)
		}
		g := clock.NewGroup(clk)
		var err error
		g.Go(func() { err = mid.Commit() })
		clk.Sleep(time.Millisecond / 2)
		db.ReleaseOwner("nn-mid")
		g.Wait()
		if !errors.Is(err, store.ErrFenced) {
			t.Errorf("commit fenced mid-round: %v, want ErrFenced", err)
		}
		for _, name := range []string{"/zombie", "/mid"} {
			if _, err := db.ResolvePath(name); !errors.Is(err, namespace.ErrNotFound) {
				t.Errorf("%s: %v, want it never published", name, err)
			}
		}
		if db.HeldLocks() != 0 {
			t.Errorf("%d locks held after the fenced commit", db.HeldLocks())
		}
		tx := db.Begin("nn-live")
		if _, err := tx.GetINode(id, store.LockExclusive); err != nil {
			t.Errorf("a live owner after the fences: %v", err)
		}
		tx.Abort()
	})
}

func TestConcurrentCreateSameNameSerializes(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		var wins, losses int
		var mu sync.Mutex
		wg := clock.NewGroup(clk)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				err := store.RunTx(db, fmt.Sprintf("c%d", i), nil, func(tx store.Tx) error {
					_, err := getChild(tx, namespace.RootID, "one", store.LockExclusive)
					if err == nil {
						return namespace.ErrExists
					}
					if !errors.Is(err, namespace.ErrNotFound) {
						return err
					}
					return tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID, Name: "one"})
				})
				mu.Lock()
				if err == nil {
					wins++
				} else if errors.Is(err, namespace.ErrExists) {
					losses++
				} else {
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			})
		}
		wg.Wait()
		if wins != 1 || losses != 7 {
			t.Fatalf("wins=%d losses=%d, want 1/7", wins, losses)
		}
		if db.HeldLocks() != 0 {
			t.Fatalf("locks leaked: %d", db.HeldLocks())
		}
	})
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Isolation property: N concurrent read-modify-write transactions on
		// one row must all be reflected (no lost updates).
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "counter")
		const workers, rounds = 8, 20
		wg := clock.NewGroup(clk)
		for w := 0; w < workers; w++ {
			wg.Go(func() {
				for r := 0; r < rounds; r++ {
					err := store.RunTx(db, fmt.Sprintf("w%d", w), nil, func(tx store.Tx) error {
						n, err := tx.GetINode(id, store.LockExclusive)
						if err != nil {
							return err
						}
						n = n.Clone()
						n.Size++
						return tx.PutINode(n)
					})
					if err != nil {
						t.Errorf("increment failed: %v", err)
						return
					}
				}
			})
		}
		wg.Wait()
		tx := db.Begin("check")
		defer tx.Abort()
		n, err := tx.GetINode(id, store.LockNone)
		if err != nil {
			t.Fatal(err)
		}
		if n.Size != workers*rounds {
			t.Fatalf("size = %d, want %d (lost updates)", n.Size, workers*rounds)
		}
	})
}

func TestRunTxRetriesOnLockTimeout(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		id := addFile(t, db, namespace.RootID, "contended")
		blocker := db.Begin("blocker")
		if _, err := blocker.GetINode(id, store.LockExclusive); err != nil {
			t.Fatal(err)
		}
		clock.Go(clk, func() {
			clk.Sleep(150 * time.Millisecond) // past one 100ms lock timeout
			blocker.Abort()
		})
		err := store.RunTx(db, "retrier", nil, func(tx store.Tx) error {
			_, err := tx.GetINode(id, store.LockExclusive)
			return err
		})
		if err != nil {
			t.Fatalf("RunTx did not retry through a lock timeout: %v", err)
		}
		if got := clk.Since(clock.Epoch); got != 150*time.Millisecond {
			t.Fatalf("the retry got the row at %v, want the release instant 150ms", got)
		}
		if n := db.Stats().LockTimeouts; n != 1 {
			t.Fatalf("%d lock timeouts recorded, want the one at 100ms", n)
		}
	})
}

// TestServiceLatencyCharged: a read whose rows all sit on one shard costs
// RTT + that shard's queue wait + ⌈rows/BatchRows⌉ × ReadService, where a
// scan or a subtree walk counts the probe past its last row. The KVScan
// cases sit on the batch boundaries, where ⌈(n+1)/B⌉ and 1+⌊n/B⌋ must agree.
func TestServiceLatencyCharged(t *testing.T) {
	const B = batchRows
	getRoot := func(db *DB) error {
		tx := db.Begin("reader")
		defer tx.Abort()
		_, err := tx.GetINode(namespace.RootID, store.LockNone)
		return err
	}
	resolve := func(p string) func(*DB) error {
		return func(db *DB) error { _, err := db.ResolvePath(p); return err }
	}
	scan := func(db *DB) error {
		tx := db.Begin("reader")
		defer tx.Abort()
		_, err := tx.KVScan(testTable, "dn")
		return err
	}
	cases := []struct {
		name    string
		key     rowKey // the key whose shard serves every row
		kvRows  int    // committed rows matching the scan's prefix
		booked  time.Duration
		free    bool // no read service: the RTT alone
		batches int
		read    func(*DB) error
	}{
		{name: "GetINode", key: inodeKey(namespace.RootID), batches: 1, read: getRoot},
		{name: "GetINode behind a booked shard", key: inodeKey(namespace.RootID), booked: 7 * time.Millisecond, batches: 1, read: getRoot},
		{name: "ResolvePath depth 0", key: plainKey("/"), batches: 1, read: resolve("/")},
		{name: "ResolvePath without read service", key: plainKey("/"), free: true, batches: 1, read: resolve("/")},
		{name: "ResolvePath depth 3", key: plainKey("/a/b/c"), batches: 1, read: resolve("/a/b/c")}, // 4 rows
		{name: "ListSubtree", key: plainKey("subtree/1"), batches: 2, read: func(db *DB) error { // B rows + probe
			_, err := db.ListSubtree(namespace.RootID)
			return err
		}},
		{name: "KVScan 0 rows", key: kvKey(testTable, "dn"), kvRows: 0, batches: 1, read: scan},
		{name: "KVScan B-1 rows", key: kvKey(testTable, "dn"), kvRows: B - 1, batches: 1, read: scan},
		{name: "KVScan B rows", key: kvKey(testTable, "dn"), kvRows: B, batches: 2, read: scan},
		{name: "KVScan B+1 rows", key: kvKey(testTable, "dn"), kvRows: B + 1, batches: 2, read: scan},
	}
	for _, c := range cases {
		simtest.Run(t, func(clk *clock.Sim) {
			cfg := DefaultConfig()
			cfg.WorkersPerNode = 1
			cfg.WriteService = 0
			if c.free {
				cfg.ReadService = 0
			}
			db := New(clk, cfg)
			rows := []*namespace.INode{
				{ID: 2, ParentID: namespace.RootID, Name: "a", IsDir: true, Perm: namespace.PermDefaultDir},
				{ID: 3, ParentID: 2, Name: "b", IsDir: true, Perm: namespace.PermDefaultDir},
				{ID: 4, ParentID: 3, Name: "c", IsDir: true, Perm: namespace.PermDefaultDir},
			}
			for id := namespace.INodeID(5); id <= B; id++ { // files in c: the subtree is B rows
				rows = append(rows, &namespace.INode{ID: id, ParentID: 4, Name: fmt.Sprintf("f%d", id), Perm: namespace.PermDefaultFile})
			}
			db.Preload(rows)
			tx := db.Begin("setup")
			for i := 0; i < c.kvRows; i++ {
				if err := tx.KVPut(testTable, fmt.Sprintf("dn%d", i), []byte("alive")); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
			start := clk.Now()
			if c.booked > 0 {
				// The shard's only worker is busy until c.booked past the
				// instant the read's round trip lands.
				db.shards[db.shardFor(c.key)].Reserve(start, cfg.RTT+c.booked)
			}
			if err := c.read(db); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := cfg.RTT + c.booked + time.Duration(c.batches)*cfg.ReadService
			if got := clk.Since(start); got != want {
				t.Errorf("%s charged %v, want RTT + %v wait + %d × ReadService = %v", c.name, got, c.booked, c.batches, want)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		addFile(t, db, namespace.RootID, "s")
		st := db.Stats()
		if st.Commits == 0 || st.Writes == 0 {
			t.Fatalf("stats not recorded: %+v", st)
		}
		if db.INodeCount() != 2 { // root + file
			t.Fatalf("inode count = %d", db.INodeCount())
		}
	})
}

// TestNextIDUnique: the allocator is an atomic counter, so host goroutines
// hammer it in parallel; nothing here parks.
func TestNextIDUnique(t *testing.T) {
	clk := simtest.New(t)
	db := testDB(clk)
	seen := make(map[namespace.INodeID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := db.NextID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTxResolvePathLocked(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		a := addDir(t, db, namespace.RootID, "a")
		f := addFile(t, db, a, "f")

		tx := db.Begin("reader")
		chain, err := tx.ResolvePathBatched("/a/f", store.LockShared, store.LockShared)
		if err != nil || len(chain) != 3 || chain[2].ID != f {
			t.Fatalf("chain = %v, %v", chain, err)
		}
		// A writer must now block on the terminal row.
		w := db.Begin("writer")
		if _, err := w.GetINode(f, store.LockExclusive); !errors.Is(err, store.ErrLockTimeout) {
			t.Fatalf("writer got exclusive under shared chain: %v", err)
		}
		w.Abort()
		tx.Abort()
	})
}

func TestTxResolvePathMissLocksSlot(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("reader")
		chain, err := tx.ResolvePathBatched("/nope", store.LockShared, store.LockShared)
		if !errors.Is(err, namespace.ErrNotFound) || len(chain) != 1 {
			t.Fatalf("chain=%v err=%v", chain, err)
		}
		// Creator of the same name must serialize against the miss.
		w := db.Begin("creator")
		if _, err := getChild(w, namespace.RootID, "nope", store.LockExclusive); !errors.Is(err, store.ErrLockTimeout) {
			t.Fatalf("creator did not block on missed slot: %v", err)
		}
		w.Abort()
		tx.Abort()
	})
}

func TestTxResolvePathSeesOwnWrites(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		tx := db.Begin("t")
		id := db.NextID()
		if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID, Name: "mine", IsDir: true}); err != nil {
			t.Fatal(err)
		}
		chain, err := tx.ResolvePathBatched("/mine", store.LockExclusive, store.LockExclusive)
		if err != nil || len(chain) != 2 || chain[1].ID != id {
			t.Fatalf("chain = %v, %v", chain, err)
		}
		tx.Abort()
	})
}

// TestExclusiveReadsHandOutTheRow: nothing the store hands out is written,
// so every read hands out the transaction's view of each row under every
// lock mode, LockExclusive included — the committed row itself, the pointer
// the store holds, or the transaction's own buffered write — and a writer
// builds its new version from a Clone.
func TestExclusiveReadsHandOutTheRow(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		a := addDir(t, db, namespace.RootID, "a")
		b := addDir(t, db, a, "b")
		f := addFile(t, db, b, "f")
		held := func(ids ...namespace.INodeID) []*namespace.INode {
			out := make([]*namespace.INode, len(ids))
			for i, id := range ids {
				out[i] = db.inodes.get(id)
			}
			return out
		}
		ex := store.LockExclusive
		for _, c := range []struct {
			name string
			read func(tx *tx) (got, want []*namespace.INode, err error)
		}{
			{"GetINode", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				n, err := tx.GetINode(f, ex)
				return []*namespace.INode{n}, held(f), err
			}},
			{"GetINodesBatched", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				rows, err := tx.GetINodesBatched([]namespace.INodeID{a, b, f}, ex)
				return rows, held(a, b, f), err
			}},
			{"LockPath parent and Target", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				lp, err := tx.LockPath("/a/b/f")
				return append(lp.Chain, lp.Target), held(namespace.RootID, a, b, f), err
			}},
			{"LockPaths", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				src, dest, err := tx.LockPaths("/a/b/f", "/a/g")
				got := append(append(src.Chain, src.Target), dest.Chain...)
				return got, held(namespace.RootID, a, b, f, namespace.RootID, a), err
			}},
			{"ResolvePathBatched", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				chain, err := tx.ResolvePathBatched("/a/b/f", ex, ex)
				return chain, held(namespace.RootID, a, b, f), err
			}},
			{"ListPathBatched", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				chain, kids, err := tx.ListPathBatched("/a/b", ex)
				return append(chain, kids...), held(namespace.RootID, a, b, f), err
			}},
			{"LockPath of a buffered parent", func(tx *tx) ([]*namespace.INode, []*namespace.INode, error) {
				next := db.inodes.get(b).Clone()
				next.Mtime++
				if err := tx.PutINode(next); err != nil {
					return nil, nil, err
				}
				lp, err := tx.LockPath("/a/b/f")
				return append(lp.Chain, lp.Target), []*namespace.INode{db.inodes.get(namespace.RootID), db.inodes.get(a), next, db.inodes.get(f)}, err
			}},
		} {
			tx := db.Begin("nn").(*tx)
			got, want, err := c.read(tx)
			tx.Abort()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, want %d", c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: row %d is %p (%v), want the transaction's view of it, %p", c.name, i, got[i], got[i], want[i])
				}
			}
		}
	})
}

// TestLockPathsSharedRowTakesSlotFirst: a row that is an ancestor of one
// path and the parent of another is taken on the parent's terms — slot,
// then row — at its first acquisition. /a/b/x sorts before /a/y, so row a
// is first met as an ancestor; taking it without its slot and the slot
// later, behind the row, inverts the order of every single-path write
// into /a and deadlocks against it until the lock-wait timeout.
func TestLockPathsSharedRowTakesSlotFirst(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		for _, paths := range [][2]string{
			{"/a/b/x", "/a/y"}, // directory ← subdirectory
			{"/a/y", "/a/b/x"}, // directory → subdirectory
			{"/a/b/x", "/a/b"}, // destination is the source's parent directory
		} {
			db := testDB(clk)
			a := addDir(t, db, namespace.RootID, "a")
			addFile(t, db, addDir(t, db, a, "b"), "x")

			// A creator inside /a, stopped between its slot and its row.
			creator := db.Begin("creator").(*tx)
			slot := childKey(namespace.RootID, "a")
			if err := creator.lock(slot, store.LockExclusive); err != nil {
				t.Fatal(err)
			}
			var err error
			mover := clock.NewGroup(clk)
			mover.Go(func() {
				tx := db.Begin("mover")
				_, _, err = tx.LockPaths(paths[0], paths[1])
				tx.Abort()
			})
			clk.Sleep(time.Millisecond) // the mover has run as far as it can
			db.locks.mu.Lock()
			queued := len(db.locks.rows[slot].waiters)
			db.locks.mu.Unlock()
			if queued != 1 {
				t.Fatalf("%v: %d waiters on the slot, want the mover", paths, queued)
			}
			if err := creator.lock(inodeKey(a), store.LockExclusive); err != nil {
				t.Fatalf("%v: mover holds row a while it waits for a's slot: %v", paths, err)
			}
			creator.Abort()
			if mover.Wait(); err != nil {
				t.Fatalf("%v: LockPaths: %v", paths, err)
			}
			if n := db.Stats().LockTimeouts; n != 0 {
				t.Fatalf("%v: %d lock-wait timeouts", paths, n)
			}
		}
	})
}

// TestConcurrentTxsKeepTheirOwnBuffers: the lock phase's chains and the
// write set live in the transaction, so two transactions in flight on one
// store at once each keep their own, and a second LockPath in one
// transaction leaves the first reply as it was.
func TestConcurrentTxsKeepTheirOwnBuffers(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		names := []string{"a", "b"}
		dirs := []namespace.INodeID{addDir(t, db, namespace.RootID, "a"), addDir(t, db, namespace.RootID, "b")}
		for _, dir := range dirs {
			addDir(t, db, dir, "s")
		}
		files := []namespace.INodeID{db.NextID(), db.NextID()}
		g := clock.NewGroup(clk)
		for i, name := range names {
			g.Go(func() {
				w := db.Begin(name).(*tx)
				first, err := w.LockPath("/" + name + "/f")
				if err != nil {
					t.Error(err)
					return
				}
				clk.Sleep(time.Millisecond) // the other transaction locks meanwhile
				second, err := w.LockPath("/" + name + "/s/g")
				if err != nil {
					t.Error(err)
					return
				}
				dir := first.Chain[len(first.Chain)-1]
				if dir.ID != dirs[i] || first.Target != nil || len(first.Chain) != 2 {
					t.Errorf("%s: first reply = %+v, want /%s's chain and no target", name, first, name)
				}
				if len(second.Chain) != 3 || second.Chain[1].ID != dirs[i] || &second.Chain[0] == &first.Chain[0] {
					t.Errorf("%s: second reply = %+v, want /%s/s's chain in storage of its own", name, second, name)
				}
				if err := w.PutINode(&namespace.INode{ID: files[i], ParentID: dir.ID, Name: "f"}); err != nil {
					t.Error(err)
					return
				}
				if err := w.PutINode(dir); err != nil {
					t.Error(err)
					return
				}
				clk.Sleep(time.Millisecond) // the other transaction buffers meanwhile
				if got := w.writeCount(); got != 2 {
					t.Errorf("%s: %d buffered writes, want its own 2", name, got)
				}
				if n, err := w.GetINode(files[1-i], store.LockNone); !errors.Is(err, namespace.ErrNotFound) {
					t.Errorf("%s reads the other transaction's buffered row: %v, %v", name, n, err)
				}
				clk.Sleep(time.Millisecond) // both check before either commits
				if err := w.Commit(); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait()
		for i, id := range files {
			if n := db.inodes.get(id); n == nil || n.ParentID != dirs[i] {
				t.Errorf("committed %d = %v, want f under /%s", id, n, names[i])
			}
		}
	})
}

// TestResolvedChainOutlivesTx: a read-only transaction's chain is its
// inline buffer, and it stays intact once the transaction has ended — past
// its Abort, past a later resolution in the same transaction (which gets
// storage of its own) and past another transaction resolving another path
// on the same store. core's read and stat read the chain after a deferred
// Abort.
func TestResolvedChainOutlivesTx(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		a := addDir(t, db, namespace.RootID, "a")
		f := addFile(t, db, addDir(t, db, a, "b"), "f")
		g := addFile(t, db, addDir(t, db, addDir(t, db, namespace.RootID, "x"), "y"), "g")

		first := db.Begin("nn")
		chain, err := first.ResolvePathBatched("/a/b/f", store.LockShared, store.LockShared)
		if err != nil || len(chain) != 4 || chain[3].ID != f {
			t.Fatalf("resolve /a/b/f: %v, %v", chain, err)
		}
		want := slices.Clone(chain)
		again, err := first.ResolvePathBatched("/x/y/g", store.LockShared, store.LockShared)
		if err != nil || again[3].ID != g || &again[0] == &chain[0] {
			t.Fatalf("second resolve in one transaction: %v, %v; want /x/y/g in storage of its own", again, err)
		}
		first.Abort()
		if !slices.Equal(chain, want) {
			t.Fatalf("chain after Abort = %v, want %v", chain, want)
		}
		second := db.Begin("nn")
		other, kids, err := second.ListPathBatched("/x/y", store.LockShared)
		if err != nil || len(other) != 3 || len(kids) != 1 || kids[0].ID != g {
			t.Fatalf("list /x/y: %v, %v, %v", other, kids, err)
		}
		second.Abort()
		if !slices.Equal(chain, want) {
			t.Fatalf("chain after another transaction's resolution = %v, want %v", chain, want)
		}
	})
}

// TestLockSetPastInlineReleasesEveryRow: a lock set larger than lockTx's
// inline buffer — a directory's 20 children read locked, the way a subtree
// quiesce reads a listing, beside the directory's chain — spills to the
// heap and is still released whole: by Abort for shared locks, by Commit
// for exclusive ones, leaving no holding and no rowLock in the table.
func TestLockSetPastInlineReleasesEveryRow(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		dir := addDir(t, db, namespace.RootID, "d")
		for i := range 20 {
			addFile(t, db, dir, fmt.Sprintf("f%02d", i))
		}
		for _, mode := range []store.LockMode{store.LockShared, store.LockExclusive} {
			tx := db.Begin("nn").(*tx)
			_, kids, err := tx.ListPathBatched("/d", mode)
			if err != nil || len(kids) != 20 {
				t.Fatalf("list /d: %d children, %v", len(kids), err)
			}
			ids := make([]namespace.INodeID, len(kids))
			for i, k := range kids {
				ids[i] = k.ID
			}
			if _, err := tx.GetINodesBatched(ids, mode); err != nil {
				t.Fatal(err)
			}
			if held := db.HeldLocks(); held <= len(tx.lt.heldBuf) {
				t.Fatalf("%v: %d rows held, want more than the %d inline", mode, held, len(tx.lt.heldBuf))
			}
			if mode == store.LockExclusive {
				mustCommit(t, tx)
			} else {
				tx.Abort()
			}
			db.locks.mu.Lock()
			rows := len(db.locks.rows)
			db.locks.mu.Unlock()
			if held := db.HeldLocks(); held != 0 || rows != 0 {
				t.Fatalf("%v: %d rows held and %d rowLocks in the table after the transaction ended", mode, held, rows)
			}
		}
	})
}

// TestTxLargeWriteSet: a write set past indexFrom rows reads back through
// its index as a small one does through its scan — rows rewritten or
// deleted from either side of the index's building included — and commits
// each row once, at its last version.
func TestTxLargeWriteSet(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := testDB(clk)
		dir := addDir(t, db, namespace.RootID, "d")
		w := db.Begin("w").(*tx)
		put := func(n *namespace.INode) {
			t.Helper()
			if err := w.PutINode(n); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([]*namespace.INode, 2*indexFrom)
		for i := range rows {
			rows[i] = &namespace.INode{ID: db.NextID(), ParentID: dir, Name: fmt.Sprintf("f%03d", i)}
			put(rows[i])
		}
		for _, i := range []int{0, len(rows) - 1} { // buffered before and after the index
			rows[i] = &namespace.INode{ID: rows[i].ID, ParentID: dir, Name: rows[i].Name, Size: 7}
			put(rows[i])
		}
		for _, i := range []int{1, len(rows) - 2} {
			if err := w.DeleteINode(rows[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		deleted := []*namespace.INode{rows[1], rows[len(rows)-2]}
		if len(w.rows) != len(rows) || w.index == nil {
			t.Fatalf("%d buffered rows (index %v), want one per row, %d, indexed", len(w.rows), w.index != nil, len(rows))
		}
		live := slices.DeleteFunc(slices.Clone(rows), func(n *namespace.INode) bool { return slices.Contains(deleted, n) })
		for _, n := range live {
			if got := w.row(n.ID); got != n {
				t.Errorf("row(%d) = %v, want the last version put", n.ID, got)
			}
		}
		for _, n := range deleted {
			if got := w.row(n.ID); got != nil {
				t.Errorf("deleted row %d reads back as %v", n.ID, got)
			}
		}
		if kids := w.childrenOf(dir); !slices.Equal(kids, live) {
			t.Errorf("listing has %d rows, want the %d live ones in name order", len(kids), len(live))
		}
		mustCommit(t, w)
		for _, n := range live {
			if got := db.inodes.get(n.ID); got != n {
				t.Errorf("committed %d = %v, want the last version put", n.ID, got)
			}
		}
		for _, n := range deleted {
			if got := db.inodes.get(n.ID); got != nil {
				t.Errorf("deleted row %d committed as %v", n.ID, got)
			}
		}
	})
}
