// Durability tier: a per-shard write-ahead log plus periodic checkpoints
// persisted through internal/lsm, modelling MySQL Cluster NDB's redo log
// and local checkpoints (the property §3 of the paper leans on when it
// calls NameNodes disposable compute over a durable store).
//
// A Durable is the simulated durable media. It outlives DB instances:
// New formats it, Commit appends one checksummed WAL record per
// committed write-transaction, Checkpoint persists a partial checkpoint
// into the per-shard LSM stores — only the rows written since that shard's
// last completed round, so each store stays the full snapshot of its rows
// at its metadata LSN — and truncates the logs, and Recover rebuilds a
// fresh DB as checkpoint-load + WAL-replay. Records carry a single
// global LSN sequence (strict 2PL means conflicting transactions commit
// in lock order, so LSN order is a valid serialization); each record
// lands on the shard owning its LSN. Recovery truncates every shard's
// log at the first torn or corrupt frame and replays the merged records
// only while LSNs stay contiguous, so the recovered state is always
// exactly a committed prefix — never a partial transaction.
package ndb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
)

// DurabilityConfig tunes the latency/cadence model of the durability
// tier. It is only consulted when Config.Durable is non-nil.
type DurabilityConfig struct {
	// WALFsync is the log force of one committed write-transaction's
	// record, one per transaction: its window opens beside the commit's row
	// service, the commit waits for whichever ends last, and both end
	// before the locks release.
	WALFsync time.Duration
	// ReplayPerRecord is charged per WAL record replayed during Recover
	// (on top of the checkpoint stores' own probe latencies).
	ReplayPerRecord time.Duration
	// CheckpointEvery triggers an automatic checkpoint after that many
	// committed write-transactions; <= 0 disables automatic rounds
	// (explicit Checkpoint calls only).
	CheckpointEvery int
	// CheckpointSync is charged per shard per checkpoint round for the
	// final checkpoint metadata sync.
	CheckpointSync time.Duration
}

// DefaultDurabilityConfig returns fsync/replay costs in line with the
// store's RTT-scale latency model.
func DefaultDurabilityConfig() DurabilityConfig {
	return DurabilityConfig{
		WALFsync:        100 * time.Microsecond,
		ReplayPerRecord: 25 * time.Microsecond,
		CheckpointEvery: 4096,
		CheckpointSync:  200 * time.Microsecond,
	}
}

// Durable is the simulated durable media under one NDB deployment:
// per-shard WAL byte logs and per-shard LSM checkpoint stores. It is
// created once and handed to New (which formats it) or Recover (which
// rebuilds a store from it); it must be attached to at most one live DB
// at a time. All methods are safe for concurrent use.
type Durable struct {
	clk     *clock.Sim
	ckptCfg lsm.Config

	mu      sync.Mutex
	wals    [][]byte
	ckpts   []*lsm.DB
	lastLSN uint64
}

// NewDurable creates empty durable media with one WAL and one
// checkpoint store per shard. The checkpoint stores bill their IO to
// clk under the given LSM latency model.
func NewDurable(clk *clock.Sim, shards int, ckptCfg lsm.Config) *Durable {
	if shards <= 0 {
		shards = 1
	}
	d := &Durable{
		clk:     clk,
		ckptCfg: ckptCfg,
		wals:    make([][]byte, shards),
		ckpts:   make([]*lsm.DB, shards),
	}
	for i := range d.ckpts {
		d.ckpts[i] = lsm.New(clk, ckptCfg)
	}
	return d
}

// Shards returns the shard count the media was formatted for.
func (d *Durable) Shards() int { return len(d.wals) }

// LastLSN returns the highest LSN appended (0 before the first append).
func (d *Durable) LastLSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastLSN
}

// WALSize reports the surviving WAL footprint across all shards:
// intact records and total bytes (including any torn tail). Diagnostic;
// parses host-side without billing virtual time.
func (d *Durable) WALSize() (records, bytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.wals {
		bytes += len(w)
		off := 0
		for {
			_, n, ok := decodeFrame(w[off:])
			if !ok {
				break
			}
			off += n
			records++
		}
	}
	return records, bytes
}

// walShard maps an LSN onto the shard whose log stores its record.
func (d *Durable) walShard(lsn uint64) int {
	return int(lsn % uint64(len(d.wals)))
}

// appendFrame records lsn as appended and writes the frame's first
// durable bytes (a fault hook may shorten or drop the write) to the
// owning shard's log. Callers serialize appends under the store's
// structure lock, which keeps each shard's log LSN-ascending.
func (d *Durable) appendFrame(lsn uint64, frame []byte, durable int) {
	if durable > len(frame) {
		durable = len(frame)
	}
	d.mu.Lock()
	d.lastLSN = lsn
	if durable > 0 {
		s := d.walShard(lsn)
		d.wals[s] = append(d.wals[s], frame[:durable]...)
	}
	d.mu.Unlock()
}

// cropWAL truncates shard's log to at most keep bytes (torn-tail test
// and recovery truncation).
func (d *Durable) cropWAL(shard, keep int) {
	d.mu.Lock()
	if keep < len(d.wals[shard]) {
		d.wals[shard] = d.wals[shard][:keep]
	}
	d.mu.Unlock()
}

// truncateThrough drops every leading intact frame with LSN <= lsn from
// each shard's log (checkpoint truncation). Torn tails and later
// records are preserved byte-for-byte.
func (d *Durable) truncateThrough(lsn uint64) {
	d.mu.Lock()
	for s, w := range d.wals {
		off := 0
		for {
			recLSN, n, ok := frameLSN(w[off:])
			if !ok || recLSN > lsn {
				break
			}
			off += n
		}
		if off > 0 {
			d.wals[s] = append([]byte(nil), w[off:]...)
		}
	}
	d.mu.Unlock()
}

// reset formats the media: empty logs, empty checkpoint stores, LSN 0.
// New calls it so a fresh store never resurrects a previous epoch.
func (d *Durable) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastLSN = 0
	for s := range d.wals {
		d.wals[s] = nil
		// Rebuild rather than delete-by-scan: formatting is O(1), not a
		// billed workload.
		d.ckpts[s] = lsm.New(d.clk, d.ckptCfg)
	}
}

// --- WAL record codec ------------------------------------------------------

// Frame layout: u32 payload length, u32 CRC-32 (IEEE) of the payload,
// payload. Payload: u64 LSN, u64 INode-ID high-water mark, u32 op
// count, ops. Ops are tagged: 1 = put INode (full row), 2 = delete
// INode, 3 = KV put, 4 = KV delete. All integers little-endian;
// strings and byte slices are u32-length-prefixed.
const (
	opPutINode = 1
	opDelINode = 2
	opKVPut    = 3
	opKVDel    = 4
)

// maxFramePayload bounds a frame's declared payload length so a corrupt
// length prefix cannot make recovery attempt a giant allocation.
const maxFramePayload = 1 << 30

// kvOp is one KV mutation inside a WAL record (val nil for deletes).
type kvOp struct {
	table, key string
	val        []byte
}

// walRecord is one decoded committed transaction.
type walRecord struct {
	lsn    uint64
	idHW   uint64 // nextID high-water mark at commit
	puts   []*namespace.INode
	dels   []namespace.INodeID
	kvPuts []kvOp
	kvDels []kvOp
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendBytes(b, v []byte) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

// appendTime encodes a timestamp as a presence byte plus UnixNano (the
// zero time's UnixNano is undefined, so it gets its own tag).
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return appendU64(b, uint64(t.UnixNano()))
}

func appendINode(b []byte, n *namespace.INode) []byte {
	b = appendU64(b, uint64(n.ID))
	b = appendU64(b, uint64(n.ParentID))
	b = appendStr(b, n.Name)
	if n.IsDir {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU32(b, uint32(n.Perm))
	b = appendStr(b, n.Owner)
	b = appendStr(b, n.Group)
	b = appendU64(b, uint64(n.Size))
	b = appendTime(b, n.Mtime)
	b = appendTime(b, n.Ctime)
	b = appendU32(b, uint32(len(n.Blocks)))
	for _, blk := range n.Blocks {
		b = appendU64(b, uint64(blk.ID))
		b = appendU64(b, uint64(blk.Size))
		b = appendU32(b, uint32(len(blk.Locations)))
		for _, loc := range blk.Locations {
			b = appendStr(b, loc)
		}
	}
	b = appendStr(b, n.SubtreeLockOwner)
	return b
}

// appendKVOp appends a KV put's table, key and value.
func appendKVOp(b []byte, op *kvOp) []byte {
	b = appendStr(b, op.table)
	b = appendStr(b, op.key)
	return appendBytes(b, op.val)
}

// kvOpSize is the length appendKVOp appends for op.
func kvOpSize(op *kvOp) int { return 4 + len(op.table) + 4 + len(op.key) + 4 + len(op.val) }

// inodeSize is the length appendINode appends for n.
func inodeSize(n *namespace.INode) int {
	size := 8 + 8 + 4 + len(n.Name) + 1 + 4 + 4 + len(n.Owner) + 4 + len(n.Group) + 8 +
		timeSize(n.Mtime) + timeSize(n.Ctime) + 4 + 4 + len(n.SubtreeLockOwner)
	for _, blk := range n.Blocks {
		size += 8 + 8 + 4
		for _, loc := range blk.Locations {
			size += 4 + len(loc)
		}
	}
	return size
}

// timeSize is the length appendTime appends for t.
func timeSize(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + 8
}

// appendRecord appends r's frame to b — the length+checksum header, then
// the payload — and returns the extended buffer. Ops are sorted first, so
// identical logical transactions always produce identical bytes.
func appendRecord(b []byte, r *walRecord) []byte {
	slices.SortFunc(r.puts, func(x, y *namespace.INode) int { return cmp.Compare(x.ID, y.ID) })
	slices.Sort(r.dels)
	slices.SortFunc(r.kvPuts, cmpKVOp)
	slices.SortFunc(r.kvDels, cmpKVOp)

	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	b = appendU64(b, r.lsn)
	b = appendU64(b, r.idHW)
	nops := len(r.puts) + len(r.dels) + len(r.kvPuts) + len(r.kvDels)
	b = appendU32(b, uint32(nops))
	for _, n := range r.puts {
		b = append(b, opPutINode)
		b = appendINode(b, n)
	}
	for _, id := range r.dels {
		b = append(b, opDelINode)
		b = appendU64(b, uint64(id))
	}
	for i := range r.kvPuts {
		b = appendKVOp(append(b, opKVPut), &r.kvPuts[i])
	}
	for _, op := range r.kvDels {
		b = append(b, opKVDel)
		b = appendStr(b, op.table)
		b = appendStr(b, op.key)
	}
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

func cmpKVOp(x, y kvOp) int {
	if c := cmp.Compare(x.table, y.table); c != 0 {
		return c
	}
	return cmp.Compare(x.key, y.key)
}

// walReader decodes a payload; any overrun or malformed field sets err
// and makes every subsequent read a zero-value no-op.
type walReader struct {
	b   []byte
	off int
	err error
}

func (r *walReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("ndb: malformed WAL record at byte %d", r.off)
	}
}

func (r *walReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *walReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *walReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *walReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *walReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}

func (r *walReader) time() time.Time {
	if r.byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(r.u64()))
}

func (r *walReader) inode() *namespace.INode {
	n := &namespace.INode{
		ID:       namespace.INodeID(r.u64()),
		ParentID: namespace.INodeID(r.u64()),
		Name:     r.str(),
		IsDir:    r.byte() == 1,
		Perm:     namespace.Permission(r.u32()),
		Owner:    r.str(),
		Group:    r.str(),
		Size:     int64(r.u64()),
		Mtime:    r.time(),
		Ctime:    r.time(),
	}
	nblocks := int(r.u32())
	if r.err != nil || nblocks < 0 || nblocks > len(r.b) {
		r.fail()
		return nil
	}
	for i := 0; i < nblocks; i++ {
		blk := namespace.Block{
			ID:   namespace.BlockID(r.u64()),
			Size: int64(r.u64()),
		}
		nlocs := int(r.u32())
		if r.err != nil || nlocs < 0 || nlocs > len(r.b) {
			r.fail()
			return nil
		}
		for j := 0; j < nlocs; j++ {
			blk.Locations = append(blk.Locations, r.str())
		}
		n.Blocks = append(n.Blocks, blk)
	}
	n.SubtreeLockOwner = r.str()
	if r.err != nil {
		return nil
	}
	return n
}

// decodeRecord parses a payload into a record; nil on any malformation.
func decodeRecord(payload []byte) *walRecord {
	r := &walReader{b: payload}
	rec := &walRecord{lsn: r.u64(), idHW: r.u64()}
	nops := int(r.u32())
	if r.err != nil || nops < 0 || nops > len(payload) {
		return nil
	}
	for i := 0; i < nops; i++ {
		switch r.byte() {
		case opPutINode:
			n := r.inode()
			if n == nil {
				return nil
			}
			rec.puts = append(rec.puts, n)
		case opDelINode:
			rec.dels = append(rec.dels, namespace.INodeID(r.u64()))
		case opKVPut:
			rec.kvPuts = append(rec.kvPuts, kvOp{table: r.str(), key: r.str(), val: r.bytes()})
		case opKVDel:
			rec.kvDels = append(rec.kvDels, kvOp{table: r.str(), key: r.str()})
		default:
			return nil
		}
		if r.err != nil {
			return nil
		}
	}
	if r.err != nil || r.off != len(payload) {
		return nil
	}
	return rec
}

// framePayload checks the first frame of b — a length prefix in bounds
// and a matching checksum — and returns its payload. ok is false on a torn
// or corrupt frame.
func framePayload(b []byte) (payload []byte, ok bool) {
	if len(b) < 8 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n <= 0 || n > maxFramePayload || 8+n > len(b) {
		return nil, false
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, false
	}
	return payload, true
}

// decodeFrame parses the first frame of b. ok is false on a torn or
// corrupt frame (short header, short payload, checksum mismatch,
// malformed record) — the caller must treat everything from this offset
// on as lost.
func decodeFrame(b []byte) (rec *walRecord, size int, ok bool) {
	payload, ok := framePayload(b)
	if !ok {
		return nil, 0, false
	}
	rec = decodeRecord(payload)
	if rec == nil {
		return nil, 0, false
	}
	return rec, 8 + len(payload), true
}

// frameLSN reads the LSN of b's first frame — a payload's first 8 bytes —
// without decoding the record: checkpoint truncation needs nothing else.
// Wherever decodeFrame accepts a frame, frameLSN returns its LSN and size.
func frameLSN(b []byte) (lsn uint64, size int, ok bool) {
	payload, ok := framePayload(b)
	if !ok || len(payload) < 8 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(payload), 8 + len(payload), true
}

// --- Checkpoints -----------------------------------------------------------

// Checkpoint value tags: rows in a checkpoint store are self-describing
// so recovery never parses row keys (KV table names may contain '/').
const (
	ckptTagINode = 'I'
	ckptTagKV    = 'K'
)

// ckptMetaKey holds the shard's checkpoint metadata (LSN covered by the
// snapshot and the INode-ID high-water mark). It sorts outside the
// "i/"/"k/" row key space.
const ckptMetaKey = "m/ckpt"

func encodeCkptMeta(lsn, nextID uint64) []byte {
	return appendU64(appendU64(make([]byte, 0, 16), lsn), nextID)
}

func decodeCkptMeta(b []byte) (lsn, nextID uint64, ok bool) {
	if len(b) != 16 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), true
}

// dirtyRows is one shard's rows written since its last completed
// checkpoint round: the INodes and KV rows applyRecord has put or deleted.
//
// Invariant: each shard's checkpoint store, with these rows set to their
// current values (deleted where absent), equals the full snapshot of the
// shard's live rows. New starts from empty stores with the root dirty;
// Recover loads the rows from the stores and marks every replayed write
// (and a root it has to install); applyRecord marks each write as it
// lands. So once a round completes, the shard's store equals the full
// snapshot of its rows at the round's meta LSN.
type dirtyRows struct {
	inodes map[namespace.INodeID]struct{}
	kv     map[kvRef]struct{}
}

func newDirtyRows() dirtyRows {
	return dirtyRows{inodes: make(map[namespace.INodeID]struct{}), kv: make(map[kvRef]struct{})}
}

// markINode records that INode id changed; a no-op without durability.
// Caller holds db.mu for writing (or owns the store, as Recover does).
func (db *DB) markINode(id namespace.INodeID) {
	if db.dirty != nil {
		db.dirty[db.shardFor(inodeKey(id))].inodes[id] = struct{}{}
	}
}

// markKV is markINode for a KV row.
func (db *DB) markKV(ref kvRef) {
	if db.dirty != nil {
		db.dirty[db.shardFor(kvKey(ref.table, ref.key))].kv[ref] = struct{}{}
	}
}

// ckptINode is a dirty INode row as a checkpoint round read it: n is nil
// when the row is absent, which the round writes as a delete.
type ckptINode struct {
	id namespace.INodeID
	n  *namespace.INode
}

// ckptKV is a dirty KV row as a checkpoint round read it; live is false
// when the row is absent.
type ckptKV struct {
	op   kvOp
	live bool
}

// ckptSpan is where one shard's rows end in a round's row slices: shard
// s's INodes run from the previous shard's end to inodes, its KV rows
// likewise to kvs.
type ckptSpan struct{ inodes, kvs int }

// encodeCkptRound sorts each shard's rows into the order a round writes
// them — INodes by ID, then KV rows by table and key — and encodes them as
// one LSM batch for the whole round, shard after shard: shard s's batch
// runs from the previous span's end to spans[s]'s. Every key is cut from
// one string and every value from one buffer, both sized before they are
// filled, so a round allocates the same few objects whatever its row
// count; the checkpoint stores take them over with the batch.
func encodeCkptRound(inodes []ckptINode, kvs []ckptKV, spans []ckptSpan) []lsm.Entry {
	// Sorted first, so that sizing reads the rows in ID order too: a bulk
	// load allocated them in that order.
	var prev ckptSpan
	buf := make([]ckptINode, len(inodes))
	for _, sp := range spans {
		sortByID(inodes[prev.inodes:sp.inodes], buf)
		slices.SortFunc(kvs[prev.kvs:sp.kvs], func(x, y ckptKV) int { return cmpKVOp(x.op, y.op) })
		prev = sp
	}

	var kb [24]byte // an INode key: "i/" and up to 20 digits
	keyLen, valLen := 0, 0
	for _, r := range inodes {
		keyLen += len(inodeKey(r.id).prefix(kb[:0]))
		if r.n != nil {
			valLen += 1 + inodeSize(r.n)
		}
	}
	for i := range kvs {
		r := &kvs[i]
		keyLen += len("k/") + len(r.op.table) + len("/") + len(r.op.key)
		if r.live {
			valLen += 1 + kvOpSize(&r.op)
		}
	}
	// A Builder only appends, so a key cut from an earlier String stays
	// valid; grown once, every key shares its one allocation.
	var keys strings.Builder
	keys.Grow(keyLen)
	vals := make([]byte, 0, valLen)
	batch := make([]lsm.Entry, 0, len(inodes)+len(kvs))
	prev = ckptSpan{}
	for _, sp := range spans {
		for _, r := range inodes[prev.inodes:sp.inodes] {
			from := keys.Len()
			keys.Write(inodeKey(r.id).prefix(kb[:0]))
			e := lsm.Entry{Key: keys.String()[from:], Delete: r.n == nil}
			if r.n != nil {
				v := len(vals)
				vals = appendINode(append(vals, ckptTagINode), r.n)
				e.Value = vals[v:len(vals):len(vals)]
			}
			batch = append(batch, e)
		}
		for i := prev.kvs; i < sp.kvs; i++ {
			r := &kvs[i]
			from := keys.Len()
			keys.WriteString("k/")
			keys.WriteString(r.op.table)
			keys.WriteByte('/')
			keys.WriteString(r.op.key)
			e := lsm.Entry{Key: keys.String()[from:], Delete: !r.live}
			if r.live {
				v := len(vals)
				vals = appendKVOp(append(vals, ckptTagKV), &r.op)
				e.Value = vals[v:len(vals):len(vals)]
			}
			batch = append(batch, e)
		}
		prev = sp
	}
	return batch
}

// sortByID sorts rows, whose IDs are distinct, by ID: a radix sort, least
// significant byte first, over the bytes the largest ID uses. buf is
// scratch at least as long as rows.
func sortByID(rows, buf []ckptINode) {
	var hi namespace.INodeID
	for _, r := range rows {
		hi = max(hi, r.id)
	}
	src, dst := rows, buf[:len(rows)]
	for shift := 0; shift < 64 && hi>>shift != 0; shift += 8 {
		var at [256]int
		for _, r := range src {
			at[byte(r.id>>shift)]++
		}
		pos := 0
		for b, n := range at {
			at[b], pos = pos, pos+n
		}
		for _, r := range src {
			b := byte(r.id >> shift)
			dst[at[b]] = r
			at[b]++
		}
		src, dst = dst, src
	}
	copy(rows, src)
}

// Checkpoint persists a partial checkpoint: each shard's store receives
// the rows written since that shard's last completed round (one batch: a
// put per live row, a delete per absent one) and then its metadata, so by
// the dirtyRows invariant it holds the full snapshot of the shard's rows
// at the round's LSN. Every WAL is then truncated up to the lowest LSN any
// shard's checkpoint covers (conservative: a shard whose round is lost
// keeps its old metadata, so the records it still needs stay in the log,
// and its rows stay dirty for the next round). It returns the LSN the
// round covers (0 with no durability tier attached). Safe to run
// concurrently with serving; concurrent commits stay in the log and in
// the next round's dirty rows.
func (db *DB) Checkpoint() uint64 {
	if db.dur == nil {
		return 0
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// Swap the dirty sets out and read their rows' values under the
	// structure lock: WAL append, apply and mark are atomic under it, so
	// the values are exactly the state at lsn. Published rows are
	// immutable, so they are encoded after it. (Fresh sets, not cleared
	// ones: a set that once held a bulk load would keep its buckets.)
	db.mu.Lock()
	lsn := db.dur.LastLSN()
	nextID := db.nextID.Load()
	nINodes, nKVs := 0, 0
	for _, d := range db.dirty {
		nINodes += len(d.inodes)
		nKVs += len(d.kv)
	}
	inodes := make([]ckptINode, 0, nINodes)
	kvs := make([]ckptKV, 0, nKVs)
	var spanBuf [stackShards]ckptSpan
	spans := spanBuf[:0]
	for s, d := range db.dirty {
		for id := range d.inodes {
			inodes = append(inodes, ckptINode{id: id, n: db.inodes[id]})
		}
		for ref := range d.kv {
			v, ok := db.kv[ref.table][ref.key]
			kvs = append(kvs, ckptKV{op: kvOp{ref.table, ref.key, v}, live: ok})
		}
		spans = append(spans, ckptSpan{inodes: len(inodes), kvs: len(kvs)})
		if len(d.inodes)+len(d.kv) > 0 {
			db.dirty[s] = newDirtyRows()
		}
	}
	db.mu.Unlock()
	batch := encodeCkptRound(inodes, kvs, spans)

	meta := encodeCkptMeta(lsn, nextID)
	var prev ckptSpan
	for s, sp := range spans {
		if h := db.cfg.OnCheckpoint; h != nil && !h(s) {
			// This shard's round is lost (fault injection): its store still
			// holds the previous round, so its taken rows merge back.
			db.mu.Lock()
			for _, r := range inodes[prev.inodes:sp.inodes] {
				db.markINode(r.id)
			}
			for _, r := range kvs[prev.kvs:sp.kvs] {
				db.markKV(kvRef{r.op.table, r.op.key})
			}
			db.mu.Unlock()
		} else {
			ck := db.dur.ckpts[s]
			ck.WriteBatch(batch[prev.inodes+prev.kvs : sp.inodes+sp.kvs])
			ck.Put(ckptMetaKey, meta)
			if d := db.cfg.Durability.CheckpointSync; d > 0 {
				db.clk.Sleep(d)
			}
		}
		prev = sp
	}

	floor := db.ckptFloor()
	db.dur.truncateThrough(floor)
	db.tel.checkpoints.Inc()
	return lsn
}

// ckptFloor reads every shard's checkpoint metadata and returns the
// lowest covered LSN — the point up to which the WAL is redundant.
func (db *DB) ckptFloor() uint64 {
	floor := ^uint64(0)
	for s := range db.dur.ckpts {
		v, ok := db.dur.ckpts[s].Get(ckptMetaKey)
		if !ok {
			return 0
		}
		lsn, _, ok := decodeCkptMeta(v)
		if !ok {
			return 0
		}
		if lsn < floor {
			floor = lsn
		}
	}
	if floor == ^uint64(0) {
		return 0
	}
	return floor
}

// maybeCheckpoint runs an automatic round every CheckpointEvery
// committed write-transactions.
func (db *DB) maybeCheckpoint() {
	every := db.cfg.Durability.CheckpointEvery
	if db.dur == nil || every <= 0 {
		return
	}
	if db.commitTick.Add(1)%uint64(every) == 0 {
		db.Checkpoint()
	}
}

// --- Recovery --------------------------------------------------------------

// RecoveryStats describes one Recover run.
type RecoveryStats struct {
	// BaseLSN is the checkpoint LSN recovery started from (the minimum
	// across shards; 0 with no checkpoint).
	BaseLSN uint64
	// LastLSN is the last LSN of the recovered committed prefix.
	LastLSN uint64
	// CheckpointRows counts rows loaded from checkpoint stores.
	CheckpointRows int
	// ReplayedRecords counts WAL records applied.
	ReplayedRecords int
	// DiscardedRecords counts intact records dropped because an earlier
	// LSN was missing (a lost or torn record orphans its successors) or
	// because they are stale copies of an LSN already replayed.
	DiscardedRecords int
	// TruncatedShards counts shards whose log was cut at a torn or
	// corrupt frame; TruncatedBytes is the total tail length discarded.
	TruncatedShards int
	TruncatedBytes  int
	// WALBytes is the surviving log footprint scanned.
	WALBytes int
	// RecoveryTime is the virtual time the rebuild took (checkpoint
	// probes + per-record replay).
	RecoveryTime time.Duration
}

// Recover rebuilds a store from cfg.Durable as checkpoint-load +
// WAL-replay. Every shard's log is truncated at the first torn or
// corrupt frame; the merged records then replay in LSN order only while
// contiguous with the checkpoint base, so the result is exactly the
// longest durable committed prefix. The media is rewritten to that
// prefix, so a subsequent crash-recover cycle is idempotent and new
// commits extend a consistent log.
func Recover(clk *clock.Sim, cfg Config) (*DB, *RecoveryStats, error) {
	if cfg.Durable == nil {
		return nil, nil, fmt.Errorf("ndb: Recover requires Config.Durable")
	}
	d := cfg.Durable
	cfg.DataNodes = d.Shards()
	start := clk.Now()
	rs := &RecoveryStats{}
	db := newDB(clk, cfg)

	// Phase 1: load the newest checkpoint rows; the replay base is the
	// lowest LSN any shard's snapshot covers (rows from shards ahead of
	// the base are re-applied idempotently by replay).
	base := ^uint64(0)
	maxID := uint64(namespace.RootID)
	for s := range d.ckpts {
		snap := d.ckpts[s].Scan("")
		meta, ok := snap[ckptMetaKey]
		if !ok {
			base = 0
			continue
		}
		lsn, nid, ok := decodeCkptMeta(meta)
		if !ok {
			return nil, nil, fmt.Errorf("ndb: shard %d checkpoint metadata corrupt", s)
		}
		if lsn < base {
			base = lsn
		}
		if nid > maxID {
			maxID = nid
		}
		for k, v := range snap {
			if k == ckptMetaKey {
				continue
			}
			if err := db.loadCkptRow(k, v); err != nil {
				return nil, nil, fmt.Errorf("ndb: shard %d: %w", s, err)
			}
			rs.CheckpointRows++
		}
	}
	if base == ^uint64(0) {
		base = 0
	}
	rs.BaseLSN = base

	// Phase 2: scan the logs, cutting each shard at its first bad frame.
	var recs []*walRecord
	d.mu.Lock()
	for s, w := range d.wals {
		off := 0
		for {
			rec, n, ok := decodeFrame(w[off:])
			if !ok {
				break
			}
			off += n
			if rec.lsn > base {
				recs = append(recs, rec)
			}
		}
		if off < len(w) {
			rs.TruncatedShards++
			rs.TruncatedBytes += len(w) - off
			d.wals[s] = d.wals[s][:off]
		}
		rs.WALBytes += off
	}
	d.mu.Unlock()

	// Phase 3: replay the contiguous prefix in LSN order. A stale copy of
	// an LSN already replayed (a frame the media surfaces twice) is
	// skipped, not taken for a gap; the sort is stable, so the copy
	// earliest in the log is the one replayed.
	slices.SortStableFunc(recs, func(x, y *walRecord) int { return cmp.Compare(x.lsn, y.lsn) })
	last := base
	replayed := recs[:0]
	for _, rec := range recs {
		if rec.lsn <= last {
			continue
		}
		if rec.lsn != last+1 {
			break
		}
		db.applyRecord(rec)
		if rec.idHW > maxID {
			maxID = rec.idHW
		}
		last = rec.lsn
		replayed = append(replayed, rec)
	}
	rs.ReplayedRecords = len(replayed)
	rs.DiscardedRecords = len(recs) - rs.ReplayedRecords
	rs.LastLSN = last

	// Rewrite the media to exactly the recovered prefix: discarded
	// records must not linger, or future appends would collide with
	// their LSNs.
	if rs.DiscardedRecords > 0 {
		d.mu.Lock()
		for s := range d.wals {
			d.wals[s] = nil
		}
		for _, rec := range replayed {
			s := d.walShard(rec.lsn)
			d.wals[s] = appendRecord(d.wals[s], rec)
		}
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.lastLSN = last
	d.mu.Unlock()

	db.finishRecovery(maxID)
	if per := cfg.Durability.ReplayPerRecord; per > 0 && rs.ReplayedRecords > 0 {
		clk.Sleep(time.Duration(rs.ReplayedRecords) * per)
	}
	rs.RecoveryTime = clk.Since(start)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("lambdafs_ndb_recoveries_total").Add(1)
		cfg.Metrics.Counter("lambdafs_ndb_replayed_records_total").Add(float64(rs.ReplayedRecords))
		cfg.Metrics.Counter("lambdafs_ndb_wal_truncations_total").Add(float64(rs.TruncatedShards))
		cfg.Metrics.Histogram("lambdafs_ndb_recovery_seconds").Observe(rs.RecoveryTime)
	}
	return db, rs, nil
}

// loadCkptRow decodes one self-describing checkpoint row into the store
// maps (children index is rebuilt afterwards by finishRecovery).
func (db *DB) loadCkptRow(key string, val []byte) error {
	if len(val) == 0 {
		return fmt.Errorf("checkpoint row %q empty", key)
	}
	switch val[0] {
	case ckptTagINode:
		r := &walReader{b: val[1:]}
		n := r.inode()
		if n == nil || r.off != len(r.b) {
			return fmt.Errorf("checkpoint row %q: corrupt inode", key)
		}
		db.inodes[n.ID] = n
	case ckptTagKV:
		r := &walReader{b: val[1:]}
		table, k, v := r.str(), r.str(), r.bytes()
		if r.err != nil || r.off != len(r.b) {
			return fmt.Errorf("checkpoint row %q: corrupt kv", key)
		}
		if db.kv[table] == nil {
			db.kv[table] = make(map[string][]byte)
		}
		db.kv[table][k] = v
	default:
		return fmt.Errorf("checkpoint row %q: unknown tag %d", key, val[0])
	}
	return nil
}

// applyRecord installs one committed transaction's writes — at commit under
// db.mu, at replay by Recover, which owns the store outright — and marks each
// written row dirty for the next checkpoint round. Puts go before deletes;
// each put row is installed itself (from here on it is published and
// immutable); the children index follows the rows; full-row values make
// replay idempotent.
func (db *DB) applyRecord(rec *walRecord) {
	unlink := func(old *namespace.INode) {
		if kids := db.children[old.ParentID]; kids != nil && kids[old.Name] == old.ID {
			delete(kids, old.Name)
		}
	}
	for _, n := range rec.puts {
		db.markINode(n.ID)
		if old := db.inodes[n.ID]; old != nil {
			unlink(old)
		}
		db.inodes[n.ID] = n
		if db.children[n.ParentID] == nil {
			db.children[n.ParentID] = make(map[string]namespace.INodeID)
		}
		db.children[n.ParentID][n.Name] = n.ID
		if n.IsDir && db.children[n.ID] == nil {
			db.children[n.ID] = make(map[string]namespace.INodeID)
		}
	}
	for _, id := range rec.dels {
		db.markINode(id)
		if old := db.inodes[id]; old != nil {
			unlink(old)
			delete(db.inodes, id)
			delete(db.children, id)
		}
	}
	for _, op := range rec.kvPuts {
		db.markKV(kvRef{op.table, op.key})
		if db.kv[op.table] == nil {
			db.kv[op.table] = make(map[string][]byte)
		}
		db.kv[op.table][op.key] = op.val
	}
	for _, op := range rec.kvDels {
		db.markKV(kvRef{op.table, op.key})
		delete(db.kv[op.table], op.key)
	}
}

// finishRecovery installs the root (marked dirty) if the media was empty,
// rebuilds the derived children index from the recovered rows, and restores
// the ID allocator above every ID the store has ever handed out.
func (db *DB) finishRecovery(maxID uint64) {
	if db.inodes[namespace.RootID] == nil {
		root := namespace.NewRoot()
		db.inodes[root.ID] = root
		db.markINode(root.ID)
	}
	db.children = make(map[namespace.INodeID]map[string]namespace.INodeID)
	for id, n := range db.inodes {
		if n.IsDir && db.children[id] == nil {
			db.children[id] = make(map[string]namespace.INodeID)
		}
		if id == namespace.RootID {
			continue
		}
		if db.children[n.ParentID] == nil {
			db.children[n.ParentID] = make(map[string]namespace.INodeID)
		}
		db.children[n.ParentID][n.Name] = id
	}
	for id := range db.inodes {
		if uint64(id) > maxID {
			maxID = uint64(id)
		}
	}
	db.nextID.Store(maxID)
}
