package ndb

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// zeroLSM returns a latency-free LSM config for checkpoint stores in
// correctness tests (billing is covered by the bench experiment).
func zeroLSM() lsm.Config {
	cfg := lsm.DefaultConfig()
	cfg.PutLatency = 0
	cfg.ProbeLatency = 0
	cfg.FlushPerEntry = 0
	cfg.CompactPerEntry = 0
	return cfg
}

// durableCfg returns a latency-free store config attached to d.
func durableCfg(d *Durable) Config {
	cfg := DefaultConfig()
	cfg.RTT = 0
	cfg.ReadService = 0
	cfg.WriteService = 0
	cfg.LockWaitTimeout = 100 * time.Millisecond
	cfg.Durable = d
	return cfg
}

// stateDigest renders the full committed state (rows, linkage, KV) as a
// canonical string; two stores with equal digests are indistinguishable.
// Must run at quiescence.
func stateDigest(db *DB) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var lines []string
	for id, n := range db.inodes {
		lines = append(lines, fmt.Sprintf("i %d %d %q dir=%v size=%d owner=%s blocks=%d sub=%q",
			id, n.ParentID, n.Name, n.IsDir, n.Size, n.Owner, len(n.Blocks), n.SubtreeLockOwner))
	}
	for parent, kids := range db.children {
		for _, c := range kids {
			for _, e := range c {
				lines = append(lines, fmt.Sprintf("c %d %q %d", parent, e.name, e.id))
			}
		}
	}
	for table, m := range db.kv {
		for k, v := range m {
			lines = append(lines, fmt.Sprintf("k %s %s %x", table, k, v))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// buildWALWorkload creates a fresh single-shard durable store and
// commits n deterministic write-transactions (creates, a KV put, a
// rename, a delete). It returns the store, its media, and the state
// digest after every prefix: digests[i] is the state once i
// transactions have committed.
func buildWALWorkload(t testing.TB, clk *clock.Sim, n int) (*DB, *Durable, []string) {
	t.Helper()
	d := NewDurable(clk, 1, zeroLSM())
	db := New(clk, durableCfg(d))
	digests := []string{stateDigest(db)}
	var ids []namespace.INodeID
	for i := 0; i < n; i++ {
		tx := db.Begin(fmt.Sprintf("w%d", i))
		switch {
		case i == 3 && len(ids) > 0:
			if err := tx.DeleteINode(ids[0]); err != nil {
				t.Fatalf("tx %d delete: %v", i, err)
			}
		case i == 4 && len(ids) > 1:
			moved := &namespace.INode{ID: ids[1], ParentID: namespace.RootID,
				Name: "renamed", Perm: namespace.PermDefaultFile, Owner: "u", Group: "g"}
			if err := tx.PutINode(moved); err != nil {
				t.Fatalf("tx %d move: %v", i, err)
			}
		default:
			id := db.NextID()
			node := &namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%02d", i), Perm: namespace.PermDefaultFile,
				Owner: "u", Group: "g", Size: int64(i * 10),
				Mtime: clk.Now().UnixNano(),
				Blocks: []namespace.Block{
					{ID: namespace.BlockID(100 + i), Size: 64, Locations: []string{"dn1", "dn2"}},
				}}
			if err := tx.PutINode(node); err != nil {
				t.Fatalf("tx %d put: %v", i, err)
			}
			if i%2 == 1 {
				if err := tx.KVPut("leases", fmt.Sprintf("path%d", i), []byte{byte(i)}); err != nil {
					t.Fatalf("tx %d kvput: %v", i, err)
				}
			}
			ids = append(ids, id)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("tx %d commit: %v", i, err)
		}
		digests = append(digests, stateDigest(db))
	}
	return db, d, digests
}

// frameBounds parses a shard's log and returns each frame's start
// offset plus the total length.
func frameBounds(t *testing.T, w []byte) (starts []int, total int) {
	t.Helper()
	off := 0
	for off < len(w) {
		if off+8 > len(w) {
			t.Fatalf("trailing garbage at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(w[off:]))
		starts = append(starts, off)
		off += 8 + n
	}
	return starts, off
}

func TestWALTornTailPrefixRecovery(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Property: with N committed transactions, truncating the log at
		// ANY byte offset inside the final record recovers exactly the N−1
		// prefix — never a partial transaction, never an error — and a
		// clean (untruncated) tail recovers all N.
		const n = 6
		_, d0, _ := buildWALWorkload(t, clk, n)
		d0.mu.Lock()
		starts, total := frameBounds(t, d0.wals[0])
		d0.mu.Unlock()
		if len(starts) != n {
			t.Fatalf("workload produced %d records, want %d", len(starts), n)
		}
		lastStart := starts[n-1]

		for cut := lastStart; cut <= total; cut++ {
			_, d, digests := buildWALWorkload(t, clk, n)
			d.cropWAL(0, cut)
			db, rs, err := Recover(clk, durableCfg(d))
			if err != nil {
				t.Fatalf("cut=%d: recover: %v", cut, err)
			}
			wantLSN := uint64(n - 1)
			wantTruncated := 1
			if cut == lastStart {
				wantTruncated = 0 // clean boundary: record absent, tail intact
			}
			if cut == total {
				wantLSN = n // clean tail: full prefix, no truncation
				wantTruncated = 0
			}
			if rs.LastLSN != wantLSN {
				t.Fatalf("cut=%d: recovered to LSN %d, want %d (stats %+v)", cut, rs.LastLSN, wantLSN, rs)
			}
			if rs.TruncatedShards != wantTruncated {
				t.Fatalf("cut=%d: truncated %d shards, want %d", cut, rs.TruncatedShards, wantTruncated)
			}
			if got := stateDigest(db); got != digests[wantLSN] {
				t.Errorf("cut=%d: state diverged from committed prefix %d:\n got: %s\nwant: %s",
					cut, wantLSN, got, digests[wantLSN])
			}
			if msgs := db.CheckIntegrity(); len(msgs) != 0 {
				t.Fatalf("cut=%d: integrity: %v", cut, msgs)
			}
			// Recovery rewrote the media to the committed prefix: a second
			// recovery must be a fixed point.
			db2, rs2, err := Recover(clk, durableCfg(d))
			if err != nil || rs2.LastLSN != wantLSN || rs2.TruncatedShards != 0 {
				t.Fatalf("cut=%d: re-recovery not idempotent: %+v err=%v", cut, rs2, err)
			}
			if stateDigest(db2) != digests[wantLSN] {
				t.Fatalf("cut=%d: re-recovery diverged", cut)
			}
		}
	})
}

func TestWALRecordCodecRoundtrip(t *testing.T) {
	rec := &walRecord{
		lsn:  42,
		idHW: 99,
		puts: []*namespace.INode{
			{ID: 7, ParentID: 1, Name: "a", IsDir: true, Perm: 0o755, Owner: "o", Group: "g"},
			{ID: 9, ParentID: 7, Name: "b", Size: 123,
				Mtime: 77, Ctime: 88,
				Blocks: []namespace.Block{
					{ID: 5, Size: 64, Locations: []string{"dn1", "dn2"}},
					{ID: 6, Size: 32},
				},
				SubtreeLockOwner: "nn-3"},
		},
		dels:   []namespace.INodeID{11, 12},
		kvPuts: []kvOp{{table: "t/x", key: "k1", val: []byte{1, 2, 3}}, {table: "t", key: "", val: nil}},
		kvDels: []kvOp{{table: "t", key: "gone"}},
	}
	for _, n := range rec.puts {
		if got, want := inodeSize(n), len(appendINode(nil, n)); got != want {
			t.Fatalf("inodeSize(%d) = %d, appendINode appends %d", n.ID, got, want)
		}
	}
	frame := appendRecord(nil, rec)
	got, size, ok := decodeFrame(frame)
	if !ok || size != len(frame) {
		t.Fatalf("decode failed: ok=%v size=%d/%d", ok, size, len(frame))
	}
	if got.lsn != 42 || got.idHW != 99 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.puts) != 2 || len(got.dels) != 2 || len(got.kvPuts) != 2 || len(got.kvDels) != 1 {
		t.Fatalf("op counts mismatch: %+v", got)
	}
	b := got.puts[1]
	if b.ID != 9 || b.Mtime != 77 || len(b.Blocks) != 2 ||
		len(b.Blocks[0].Locations) != 2 || b.Blocks[0].Locations[1] != "dn2" ||
		b.SubtreeLockOwner != "nn-3" {
		t.Fatalf("inode roundtrip mismatch: %+v", b)
	}
	if string(got.kvPuts[1].table) != "t/x" && string(got.kvPuts[0].table) != "t" {
		t.Fatalf("kv roundtrip mismatch: %+v", got.kvPuts)
	}
	// Corrupting any single byte must be detected.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		if rec, _, ok := decodeFrame(bad); ok {
			// A corrupt length prefix may still describe a shorter valid
			// frame only if the checksum happens to match — effectively
			// impossible; treat any acceptance as a failure.
			t.Fatalf("byte %d corruption accepted: %+v", i, rec)
		}
	}
}

// preloadedFile and preloadedDir are rows of the shape workload.PreloadNDB
// installs, at IDs a 65,536-file namespace reaches: a 128 MiB file with
// one block on three DataNodes, and a directory; neither is stamped.
func preloadedFile() *namespace.INode {
	return &namespace.INode{ID: 70000, ParentID: 4000, Name: "file00015", Perm: namespace.PermDefaultFile,
		Owner: "hdfs", Group: "hdfs", Size: 128 << 20,
		Blocks: []namespace.Block{{ID: 70000, Size: 128 << 20, Locations: []string{"dn1", "dn2", "dn3"}}}}
}

func preloadedDir() *namespace.INode {
	return &namespace.INode{ID: 4000, ParentID: 1000, Name: "bench0999", IsDir: true,
		Perm: namespace.PermDefaultDir, Owner: "hdfs", Group: "hdfs"}
}

// TestRowEncodingFootprint pins what a row costs in a WAL record and as a
// checkpoint value (one tag byte more): 109 bytes for the file and 68 for
// the directory when every integer and length was fixed-width.
func TestRowEncodingFootprint(t *testing.T) {
	for _, c := range []struct {
		what string
		n    *namespace.INode
		want int
	}{
		{"preloaded file", preloadedFile(), 56},
		{"preloaded directory", preloadedDir(), 32},
	} {
		if got := inodeSize(c.n); got != c.want {
			t.Errorf("%s: inodeSize %d, want %d", c.what, got, c.want)
		}
		if got := len(appendINode(nil, c.n)); got != c.want {
			t.Errorf("%s: appendINode appends %d bytes, want %d", c.what, got, c.want)
		}
	}
}

// TestRowCodecRejectsOversizedLength: a length or count the payload cannot
// hold fails the decode instead of slicing past the payload — including one
// so large that adding it to the offset would wrap an int.
func TestRowCodecRejectsOversizedLength(t *testing.T) {
	// splice replaces the one-byte uvarint at off in row with v.
	splice := func(row []byte, off int, v []byte) []byte {
		return append(append(slices.Clip(row[:off]), v...), row[off+1:]...)
	}
	dir := appendINode(nil, preloadedDir())
	nameAt := uvarintSize(4000) + uvarintSize(1000) // the name's length
	file := appendINode(nil, preloadedFile())
	bare := preloadedFile()
	bare.Blocks = nil
	blocksAt := inodeSize(bare) - 2 // the block count, then the subtree owner's empty name
	for _, c := range []struct {
		what string
		b    []byte
	}{
		{"a name one byte past the payload", splice(dir, nameAt, binary.AppendUvarint(nil, uint64(len(dir)-nameAt)))},
		{"a name of MaxInt64 bytes", splice(dir, nameAt, binary.AppendUvarint(nil, 1<<63-1))},
		{"a name of MaxUint64 bytes", splice(dir, nameAt, binary.AppendUvarint(nil, 1<<64-1))},
		{"a uvarint past 64 bits", splice(dir, nameAt, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})},
		{"a truncated uvarint", append(slices.Clip(dir[:nameAt]), 0x80)},
		{"a block count of 2^62", splice(file, blocksAt, binary.AppendUvarint(nil, 1<<62))},
	} {
		r := &walReader{b: c.b}
		if n := r.inode(); n != nil || r.err == nil {
			t.Errorf("%s: decoded %v, err %v", c.what, n, r.err)
		}
	}
}

// FuzzINodeCodec holds the row codec to three properties: no input makes
// walReader.inode panic (a row it accepts re-encodes to a row that decodes
// to itself); appendINode then walReader.inode gives back the row; and
// inodeSize is the length appendINode appends.
func FuzzINodeCodec(f *testing.F) {
	for _, n := range []*namespace.INode{preloadedFile(), preloadedDir()} {
		f.Add(appendINode(nil, n), uint64(n.ID), uint64(n.ParentID), n.Name, n.IsDir, uint16(n.Perm),
			n.Owner, n.Size, n.Mtime, uint8(len(n.Blocks)), "dn1", "")
	}
	f.Add([]byte{}, uint64(1<<63), uint64(0), "", false, uint16(0xffff), "", int64(-1), int64(1679702400000000000), uint8(3), "", "nn-3")
	f.Fuzz(func(t *testing.T, data []byte, id, parent uint64, name string, isDir bool, perm uint16,
		owner string, size, mtime int64, nblocks uint8, loc, sub string) {
		r := &walReader{b: data}
		if got := r.inode(); got != nil {
			roundTrip(t, got)
		}

		n := &namespace.INode{ID: namespace.INodeID(id), ParentID: namespace.INodeID(parent), Name: name,
			IsDir: isDir, Perm: namespace.Permission(perm), Owner: owner, Group: name + owner, Size: size,
			Mtime: mtime, Ctime: -mtime, SubtreeLockOwner: sub}
		for i := 0; i < int(nblocks%8); i++ {
			blk := namespace.Block{ID: namespace.BlockID(id + uint64(i)), Size: size >> i}
			for j := 0; j < i; j++ {
				blk.Locations = append(blk.Locations, loc[:min(j, len(loc))])
			}
			n.Blocks = append(n.Blocks, blk)
		}
		roundTrip(t, n)
	})
}

// roundTrip checks that n encodes to inodeSize(n) bytes that decode, all of
// them, back to n.
func roundTrip(t *testing.T, n *namespace.INode) {
	t.Helper()
	b := appendINode(nil, n)
	if len(b) != inodeSize(n) {
		t.Fatalf("inodeSize %d, appendINode appends %d: %+v", inodeSize(n), len(b), n)
	}
	r := &walReader{b: b}
	got := r.inode()
	if r.err != nil || r.off != len(b) {
		t.Fatalf("decode of %+v: err %v after %d of %d bytes", n, r.err, r.off, len(b))
	}
	if !reflect.DeepEqual(got, n) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, n)
	}
}

func TestCheckpointTruncatesWALAndRecovers(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 4, zeroLSM())
		db := New(clk, durableCfg(d))
		for i := 0; i < 10; i++ {
			tx := db.Begin("w")
			id := db.NextID()
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
		if lsn := db.Checkpoint(); lsn != 10 {
			t.Fatalf("checkpoint covered LSN %d, want 10", lsn)
		}
		if recs, _ := d.WALSize(); recs != 0 {
			t.Fatalf("WAL holds %d records after full checkpoint, want 0", recs)
		}
		pre := stateDigest(db)
		// Five more commits after the checkpoint; only these should replay.
		for i := 10; i < 15; i++ {
			tx := db.Begin("w")
			id := db.NextID()
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
		post := stateDigest(db)
		db2, rs, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if rs.BaseLSN != 10 || rs.LastLSN != 15 || rs.ReplayedRecords != 5 {
			t.Fatalf("recovery stats %+v, want base 10 last 15 replayed 5", rs)
		}
		if got := stateDigest(db2); got != post {
			t.Fatalf("recovered state != pre-crash state\n got: %s\nwant: %s", got, post)
		}
		if pre == post {
			t.Fatal("test bug: pre and post digests identical")
		}
		// Allocator must stay above every recovered ID.
		if id := db2.NextID(); uint64(id) <= 15 {
			t.Fatalf("NextID after recovery = %d, collides with recovered rows", id)
		}
	})
}

func TestRecoverStopsAtLSNGap(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Drop one mid-log record (shard-local fault): every later record —
		// on any shard — must be discarded, because the committed prefix
		// ends where the log first has a hole.
		d := NewDurable(clk, 3, zeroLSM())
		cfg := durableCfg(d)
		const dropLSN = 7
		cfg.OnWALAppend = func(shard int, lsn uint64, size int) int {
			if lsn == dropLSN {
				return 0
			}
			return size
		}
		db := New(clk, cfg)
		var digests []string
		digests = append(digests, stateDigest(db))
		for i := 0; i < 12; i++ {
			tx := db.Begin("w")
			id := db.NextID()
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			digests = append(digests, stateDigest(db))
		}
		db2, rs, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if rs.LastLSN != dropLSN-1 {
			t.Fatalf("recovered to LSN %d, want %d", rs.LastLSN, dropLSN-1)
		}
		if rs.DiscardedRecords != 12-dropLSN {
			t.Fatalf("discarded %d records, want %d", rs.DiscardedRecords, 12-dropLSN)
		}
		if got := stateDigest(db2); got != digests[dropLSN-1] {
			t.Fatalf("state != committed prefix %d", dropLSN-1)
		}
		// The media was rewritten to the prefix: appending after recovery
		// must produce a log that recovers cleanly.
		tx := db2.Begin("w")
		id := db2.NextID()
		if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
			Name: "after", Perm: namespace.PermDefaultFile}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		want := stateDigest(db2)
		db3, rs3, err := Recover(clk, durableCfg(d))
		if err != nil || rs3.LastLSN != dropLSN || rs3.DiscardedRecords != 0 {
			t.Fatalf("post-gap append recovery: %+v err=%v", rs3, err)
		}
		if stateDigest(db3) != want {
			t.Fatal("post-gap append state diverged")
		}
	})
}

func TestLostCheckpointFallsBackToWAL(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// A shard whose checkpoint round is lost keeps its old metadata, so
		// the WAL keeps every record past the surviving floor and recovery
		// still reaches the full committed state — just with more replay.
		d := NewDurable(clk, 4, zeroLSM())
		cfg := durableCfg(d)
		lost := 0
		cfg.OnCheckpoint = func(shard int) bool {
			if shard == 2 {
				lost++
				return false
			}
			return true
		}
		db := New(clk, cfg)
		for i := 0; i < 9; i++ {
			tx := db.Begin("w")
			id := db.NextID()
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
		db.Checkpoint()
		if lost != 1 {
			t.Fatalf("loss hook fired %d times, want 1", lost)
		}
		// Conservative truncation: shard 2 never checkpointed, so nothing
		// may be truncated.
		if recs, _ := d.WALSize(); recs != 9 {
			t.Fatalf("WAL holds %d records after lost round, want 9", recs)
		}
		want := stateDigest(db)
		db2, rs, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if rs.BaseLSN != 0 || rs.ReplayedRecords != 9 || rs.LastLSN != 9 {
			t.Fatalf("recovery stats %+v, want base 0 replayed 9 last 9", rs)
		}
		if stateDigest(db2) != want {
			t.Fatal("recovered state diverged after lost checkpoint")
		}
	})
}

func TestPreloadSurvivesRestart(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 2, zeroLSM())
		db := New(clk, durableCfg(d))
		nodes := []*namespace.INode{
			{ID: 2, ParentID: 1, Name: "dir", IsDir: true, Perm: namespace.PermDefaultDir},
			{ID: 3, ParentID: 2, Name: "file", Perm: namespace.PermDefaultFile, Size: 7},
		}
		db.Preload(nodes)
		want := stateDigest(db)
		db2, rs, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if stateDigest(db2) != want {
			t.Fatal("preloaded namespace lost on restart")
		}
		if rs.CheckpointRows == 0 {
			t.Fatalf("preload did not checkpoint: %+v", rs)
		}
		if id := db2.NextID(); uint64(id) <= 3 {
			t.Fatalf("NextID after recovery = %d, collides with preloaded rows", id)
		}
	})
}

func TestNewFormatsDurableMedia(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 2, zeroLSM())
		db := New(clk, durableCfg(d))
		tx := db.Begin("w")
		if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID,
			Name: "old-epoch", Perm: namespace.PermDefaultFile}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		db.Checkpoint()
		// A second New over the same media starts a fresh epoch.
		db2 := New(clk, durableCfg(d))
		if db2.INodeCount() != 1 {
			t.Fatalf("fresh store has %d inodes, want 1 (root)", db2.INodeCount())
		}
		db3, rs, err := Recover(clk, durableCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		if rs.LastLSN != 0 || db3.INodeCount() != 1 {
			t.Fatalf("old epoch resurrected: %+v inodes=%d", rs, db3.INodeCount())
		}
	})
}

func TestWALStatsCounted(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 2, zeroLSM())
		cfg := durableCfg(d)
		cfg.Durability.CheckpointEvery = 4
		db := New(clk, cfg)
		for i := 0; i < 8; i++ {
			tx := db.Begin("w")
			if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID,
				Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
		// Read-only transactions must not consume LSNs or append records.
		tx := db.Begin("r")
		if _, err := tx.GetINode(namespace.RootID, store.LockShared); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		st := db.Stats()
		if st.WALAppends != 8 || st.WALBytes == 0 {
			t.Fatalf("WAL stats %+v, want 8 appends", st)
		}
		if st.Checkpoints != 2 {
			t.Fatalf("auto-checkpoints = %d, want 2 (every 4 of 8 commits)", st.Checkpoints)
		}
		if d.LastLSN() != 8 {
			t.Fatalf("LastLSN = %d, want 8", d.LastLSN())
		}
	})
}

// TestWALFsyncBilled: a durable write commit opens its fsync window beside
// its row service and waits once, for whichever window ends last — a
// single-row commit after its round trip, a multi-shard commit with the
// round trip overlapped too — and a store without durability charges no
// fsync.
func TestWALFsyncBilled(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		name                string
		durable             bool
		shards, writes      int
		rtt, service, fsync time.Duration
		want                time.Duration
	}{
		// A commit waits once for the longest of its round trip, its fsync
		// and its slowest shard. A durable commit with every other latency
		// zero advances the virtual clock by the configured fsync.
		{"zero service: the 5ms fsync", true, 1, 1, 0, 0, 5 * time.Millisecond, 5 * time.Millisecond},
		{"fsync within the service is hidden", true, 1, 1, 300 * us, 400 * us, 100 * us, 400 * us},
		{"fsync past the service shows the difference", true, 1, 1, 300 * us, 400 * us, 1000 * us, 1000 * us},
		// 5 rows over 4 shards: each shard serves its rows in one batch.
		{"multi-shard: the slowest shard", true, 4, 5, 300 * us, 400 * us, 100 * us, 400 * us},
		{"multi-shard: the fsync", true, 4, 5, 300 * us, 400 * us, 1000 * us, 1000 * us},
		{"multi-shard: the round trip", true, 4, 5, 2000 * us, 400 * us, 1000 * us, 2000 * us},
		// BatchRows is 64: a shard's 65th row takes a second batch.
		{"one shard: a second batch", true, 1, 65, 300 * us, 400 * us, 100 * us, 800 * us},
		{"not durable: no fsync", false, 1, 1, 300 * us, 400 * us, 5 * time.Millisecond, 400 * us},
	} {
		t.Run(c.name, func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				cfg := durableCfg(NewDurable(clk, c.shards, zeroLSM()))
				if !c.durable {
					cfg.Durable, cfg.DataNodes = nil, c.shards
				}
				cfg.RTT, cfg.WriteService = c.rtt, c.service
				cfg.Durability.WALFsync = c.fsync
				db := New(clk, cfg)
				tx := db.Begin("w")
				for i := 0; i < c.writes; i++ {
					if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: namespace.RootID,
						Name: fmt.Sprintf("f%d", i), Perm: namespace.PermDefaultFile}); err != nil {
						t.Fatal(err)
					}
				}
				start := clk.Now()
				mustCommit(t, tx)
				if dur := clk.Since(start); dur != c.want {
					t.Fatalf("commit of %d rows charged %v, want %v", c.writes, dur, c.want)
				}
			})
		})
	}
}

// TestCommitWindowDurableBeforeVisible: a reader queued on a row that a
// committing transaction wrote is granted it only when the commit's window
// — the round trip and the row service beside a longer fsync — has ended,
// and then reads the write; the media as it stands at the commit point
// already recovers it.
func TestCommitWindowDurableBeforeVisible(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		d := NewDurable(clk, 1, zeroLSM())
		cfg := durableCfg(d)
		cfg.RTT, cfg.WriteService = 300*time.Microsecond, 400*time.Microsecond
		cfg.Durability.WALFsync = time.Millisecond
		window := cfg.Durability.WALFsync // the fsync outlasts the round trip and the service
		db := New(clk, cfg)
		id := db.NextID()
		w := db.Begin("w")
		if err := w.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
			Name: "f", Perm: namespace.PermDefaultFile}); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		committedAt := time.Duration(-1)
		w.AtCommitPoint(func() {
			committedAt = clk.Since(start)
			recovered, _, err := Recover(clk, durableCfg(d))
			if err != nil {
				t.Error(err) // not Fatal: the commit must still release the reader
				return
			}
			if _, err := recovered.ResolvePath("/f"); err != nil {
				t.Errorf("media at the commit point does not recover the write: %v", err)
			}
		})
		var grantedAt time.Duration
		var seen *namespace.INode
		reader := clock.NewGroup(clk)
		reader.Go(func() {
			r := db.Begin("r").(*tx)
			if err := r.lock(inodeKey(id), store.LockShared); err != nil {
				t.Error(err)
				return
			}
			grantedAt = clk.Since(start)
			seen = r.readINode(id, store.LockShared)
			r.Abort()
		})
		mustCommit(t, w)
		reader.Wait()
		if committedAt != window || grantedAt != window {
			t.Fatalf("commit point at +%v, reader granted at +%v; want both at the window's end +%v",
				committedAt, grantedAt, window)
		}
		if seen == nil {
			t.Fatal("reader granted the row does not read the write")
		}
	})
}
