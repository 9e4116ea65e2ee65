package ndb

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

// fullSnapshot renders what a full-snapshot checkpoint round would write at
// the store's current state: every live row, keyed and encoded as a
// checkpoint row, on the shard owning it. Must run at quiescence.
func fullSnapshot(db *DB) []map[string][]byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]map[string][]byte, len(db.shards))
	for s := range out {
		out[s] = make(map[string][]byte)
	}
	for id, n := range db.inodes {
		k := inodeKey(id)
		out[db.shardFor(k)][k.String()] = append([]byte{ckptTagINode}, appendINode(nil, n)...)
	}
	for table, m := range db.kv {
		for key, val := range m {
			k := kvKey(table, key)
			v := appendStr([]byte{ckptTagKV}, table)
			v = appendStr(v, key)
			out[db.shardFor(k)][k.String()] = appendBytes(v, val)
		}
	}
	return out
}

// dirtyRoundDB returns a durable store on four shards whose checkpoint
// stores run the default LSM latency model, holding 512 files and 512 KV
// rows that a first round has written, and dirty(n), which marks n of those
// rows, half of each kind, for the next round. Its rounds pay the default
// metadata sync.
func dirtyRoundDB(t *testing.T, clk *clock.Sim) (*DB, func(n int)) {
	t.Helper()
	cfg := durableCfg(NewDurable(clk, 4, lsm.DefaultConfig()))
	cfg.Durability = DefaultDurabilityConfig()
	db := New(clk, cfg)
	const rows = 512
	ids := make([]namespace.INodeID, rows)
	for i := range ids {
		ids[i] = addFile(t, db, namespace.RootID, fmt.Sprintf("f%d", i))
	}
	for i := 0; i < rows; i += 64 {
		tx := db.Begin("test")
		for j := i; j < i+64; j++ {
			if err := tx.KVPut("t", fmt.Sprintf("k%d", j), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	db.Checkpoint()
	return db, func(n int) {
		db.mu.Lock()
		defer db.mu.Unlock()
		for i := 0; i < n/2; i++ {
			db.markINode(ids[i])
			db.markKV(kvRef{"t", fmt.Sprintf("k%d", i)})
		}
	}
}

// sortByID orders rows as a comparison sort by ID does, whatever bytes
// the IDs use.
func TestSortByID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{0, 1, 8, 9, 17, 40, 63, 64} {
		for _, n := range []int{0, 1, 2, 100, 3000} {
			if bits < 63 {
				n = min(n, 1<<bits) // IDs are distinct
			}
			seen := map[namespace.INodeID]bool{}
			var rows []ckptINode
			for len(rows) < n {
				id := namespace.INodeID(rng.Uint64())
				if bits < 64 {
					id &= 1<<bits - 1
				}
				if !seen[id] {
					seen[id] = true
					rows = append(rows, ckptINode{id: id, n: &namespace.INode{ID: id}})
				}
			}
			want := slices.Clone(rows)
			slices.SortFunc(want, func(x, y ckptINode) int { return cmp.Compare(x.id, y.id) })
			sortByID(rows, make([]ckptINode, len(rows)))
			if !slices.Equal(rows, want) {
				t.Fatalf("%d rows of %d-bit IDs: sortByID order differs from a comparison sort", n, bits)
			}
		}
	}
}

// A checkpoint round's clock advances are a constant per shard, whatever
// its row count: one sleep for its batch's puts, one for the metadata put
// and one for the sync (no flush is due, and the floor reads hit the
// memtables).
func TestDirtyCheckpointRoundAdvances(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db, dirty := dirtyRoundDB(t, clk)
		puts := func() (sum uint64) {
			for _, ck := range db.dur.ckpts {
				sum += ck.Stats().Puts
			}
			return sum
		}
		for _, n := range []int{64, 1024} {
			dirty(n)
			putsBefore, before := puts(), clk.Advances()
			db.Checkpoint()
			if got, want := clk.Advances()-before, uint64(3*db.dur.Shards()); got != want {
				t.Errorf("round of %d dirty rows: %d clock advances, want %d (3 per shard)", n, got, want)
			}
			if got, want := puts()-putsBefore, uint64(n+db.dur.Shards()); got != want {
				t.Errorf("round of %d dirty rows put %d rows, want %d (and a metadata row per shard)", n, got, want)
			}
		}
	})
}

// TestPartialCheckpointEqualsFullSnapshot is a seeded differential test of
// partial checkpoints: random commits of INode and KV puts and deletes,
// random rounds in which each shard's round may be lost, and crash→Recover
// cycles. After every round, each shard that completed it must hold exactly
// the full snapshot of its rows, byte for byte, under metadata naming the
// round's LSN; every Recover must reproduce the committed state.
func TestPartialCheckpointEqualsFullSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		simtest.Run(t, func(clk *clock.Sim) { partialCheckpointEpisode(t, clk, seed) })
	}
}

func partialCheckpointEpisode(t *testing.T, clk *clock.Sim, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	lsmCfg := zeroLSM()
	lsmCfg.MemtableEntries = 16 // flush and compact through tombstones
	d := NewDurable(clk, 3, lsmCfg)
	cfg := durableCfg(d)
	completed := make([]bool, d.Shards())
	lossy := false // Preload's rows are in no WAL: its round must land
	cfg.OnCheckpoint = func(s int) bool {
		completed[s] = !lossy || rng.Intn(3) != 0
		return completed[s]
	}
	db := New(clk, cfg)

	checkRound := func(step int, lsn uint64) {
		t.Helper()
		full := fullSnapshot(db)
		for s, done := range completed {
			if !done {
				continue
			}
			got := d.ckpts[s].Scan("")
			meta, _, ok := decodeCkptMeta(got[ckptMetaKey])
			if !ok || meta != lsn {
				t.Fatalf("seed %d step %d shard %d: checkpoint metadata LSN %d (ok=%v), want %d", seed, step, s, meta, ok, lsn)
			}
			delete(got, ckptMetaKey)
			if !maps.EqualFunc(got, full[s], bytes.Equal) {
				t.Fatalf("seed %d step %d shard %d: checkpoint != full snapshot: %q", seed, step, s, diffRows(got, full[s]))
			}
		}
		clear(completed)
	}

	type file struct {
		id   namespace.INodeID
		name string
	}
	var files []file
	names := 0
	fresh := func() string { names++; return fmt.Sprintf("f%d", names) }
	newFile := func(id namespace.INodeID) *namespace.INode {
		return &namespace.INode{ID: id, ParentID: namespace.RootID, Name: fresh(),
			Perm: namespace.PermDefaultFile, Owner: "u", Group: "g", Size: rng.Int63n(1 << 20)}
	}
	tables := []string{"leases", "t/x"}
	kvRow := func() (string, string) {
		return tables[rng.Intn(len(tables))], fmt.Sprintf("k%d", rng.Intn(8))
	}

	if seed%2 == 0 {
		var nodes []*namespace.INode
		for range 5 {
			n := newFile(db.NextID())
			nodes = append(nodes, n)
			files = append(files, file{n.ID, n.Name})
		}
		db.Preload(nodes)
		checkRound(-1, d.LastLSN())
	}
	lossy = true

	for step := 0; step < 300; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			want := stateDigest(db)
			recovered, _, err := Recover(clk, cfg)
			if err != nil {
				t.Fatalf("seed %d step %d: recover: %v", seed, step, err)
			}
			if got := stateDigest(recovered); got != want {
				t.Fatalf("seed %d step %d: recovered state diverged\n got: %s\nwant: %s", seed, step, got, want)
			}
			db = recovered
		case r < 4:
			checkRound(step, db.Checkpoint())
		default:
			tx := db.Begin("w")
			for range 1 + rng.Intn(3) {
				var err error
				switch op := rng.Intn(5); {
				case op == 0 || len(files) == 0:
					n := newFile(db.NextID())
					files = append(files, file{n.ID, n.Name})
					err = tx.PutINode(n)
				case op == 1: // rename and resize
					i := rng.Intn(len(files))
					n := newFile(files[i].id)
					files[i].name = n.Name
					err = tx.PutINode(n)
				case op == 2:
					i := rng.Intn(len(files))
					err = tx.DeleteINode(files[i].id)
					files = slices.Delete(files, i, i+1)
				case op == 3:
					table, key := kvRow()
					err = tx.KVPut(table, key, bytes.Repeat([]byte{byte(step)}, rng.Intn(4)))
				default:
					table, key := kvRow()
					err = tx.KVDelete(table, key)
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			mustCommit(t, tx)
		}
	}
}

// diffRows lists the keys on which a checkpoint and a snapshot disagree.
func diffRows(got, want map[string][]byte) []string {
	var out []string
	for k, v := range want {
		if g, ok := got[k]; !ok {
			out = append(out, "missing "+k)
		} else if !bytes.Equal(g, v) {
			out = append(out, "stale "+k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, "extra "+k)
		}
	}
	slices.Sort(out)
	return out
}

// FuzzWALRecover appends arbitrary bytes after a valid five-record log and
// recovers it. Recover never fails or panics and never loses the committed
// prefix; it replays exactly the LSNs the tail's intact frames continue it
// with, and where the tail continues it with nothing (or starts with the
// sixth committed record) the state is that committed prefix's. Wherever
// decodeFrame accepts a frame in the tail, frameLSN reads the same LSN and
// size. The seed corpus, testdata/fuzz/FuzzWALRecover, is the torn-tail
// sweep's cuts of the sixth record plus stale and corrupt frames.
func FuzzWALRecover(f *testing.F) {
	const n = 6
	var log []byte
	var starts []int
	var digests []string
	simtest.Run(f, func(clk *clock.Sim) {
		var d *Durable
		_, d, digests = buildWALWorkload(f, clk, n)
		log = d.wals[0]
	})
	for off := 0; off < len(log); {
		_, size, ok := decodeFrame(log[off:])
		if !ok {
			f.Fatalf("workload log unreadable at byte %d", off)
		}
		starts = append(starts, off)
		off += size
	}
	prefix, last := log[:starts[n-1]], log[starts[n-1]:]

	f.Fuzz(func(t *testing.T, tail []byte) {
		want := uint64(n - 1)
		lsns := map[uint64]bool{}
		for off := 0; off <= len(tail); off++ {
			rec, size, ok := decodeFrame(tail[off:])
			if !ok {
				continue
			}
			if lsn, fsize, fok := frameLSN(tail[off:]); !fok || lsn != rec.lsn || fsize != size {
				t.Fatalf("offset %d: decodeFrame reads LSN %d size %d, frameLSN %d size %d ok=%v",
					off, rec.lsn, size, lsn, fsize, fok)
			}
		}
		for off := 0; ; {
			rec, size, ok := decodeFrame(tail[off:])
			if !ok {
				break
			}
			lsns[rec.lsn] = true
			off += size
		}
		for lsns[want+1] {
			want++
		}

		simtest.Run(t, func(clk *clock.Sim) {
			d := NewDurable(clk, 1, zeroLSM())
			d.wals[0] = append(slices.Clip(prefix), tail...)
			db, rs, err := Recover(clk, durableCfg(d))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rs.LastLSN != want {
				t.Fatalf("recovered to LSN %d, want %d (stats %+v)", rs.LastLSN, want, rs)
			}
			if want == n-1 || (want == n && bytes.HasPrefix(tail, last)) {
				if got := stateDigest(db); got != digests[want] {
					t.Fatalf("state diverged from committed prefix %d:\n got: %s\nwant: %s", want, got, digests[want])
				}
			}
		})
	})
}
