// Package lsm is a small log-structured merge tree modelled on LevelDB,
// the persistent metadata store of IndexFS (§4, §5.7): a mutable
// memtable, sorted string tables (SSTables, each packed into one byte
// slice) flushed into level 0, and leveled compaction into non-overlapping
// higher levels. WriteBatch is the
// one write path (Put and Delete are one-entry batches): writes are fast
// (memtable inserts) but occasionally stall on flush/compaction; reads
// pay a probe per table consulted (read amplification). Deletes are
// tombstones dropped at the bottom level.
//
// The latency model charges virtual time for puts, per-table probes, and
// flush/compaction work, which is what gives IndexFS its LSM-shaped
// write/read asymmetry in the Figure 16 reproduction.
package lsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"lambdafs/internal/clock"
)

// tombstone marks deleted keys until bottom-level compaction drops them.
var tombstone = []byte{0xde, 0xad, 0xbe, 0xef, 0x00}

func isTombstone[T string | []byte](v T) bool {
	return len(v) == len(tombstone) && string(v) == string(tombstone)
}

// The tree's shape, after LevelDB's defaults (the paper gives none).
const (
	// MemtableEntries triggers a flush. LevelDB sizes its write buffer in
	// bytes (4 MiB); the model counts entries.
	MemtableEntries = 4096
	// L0CompactTrigger is the number of L0 tables past which L0 compacts
	// into L1: LevelDB's kL0_CompactionTrigger.
	L0CompactTrigger = 4
	// maxLevels bounds the tree depth (each level is kept as one sorted
	// table; compaction into the bottom level drops tombstones). LevelDB
	// keeps 7; here L1 holds 8 memtables' worth, L2 64, and L3 the rest.
	maxLevels = 4
)

// shape is a tree's geometry: the constants above for every tree New
// builds; lsm's own tests build smaller ones, so that a few dozen entries
// flush and compact.
type shape struct {
	memtable, l0Trigger, levels int
}

// Config tunes the tree's latency model.
type Config struct {
	// PutLatency is charged per memtable insert.
	PutLatency time.Duration
	// ProbeLatency is charged per table consulted on a read.
	ProbeLatency time.Duration
	// FlushPerEntry / CompactPerEntry are charged synchronously to the
	// operation that triggers the flush or compaction (write stalls).
	FlushPerEntry   time.Duration
	CompactPerEntry time.Duration
}

// DefaultConfig returns LevelDB-flavoured latencies.
func DefaultConfig() Config {
	return Config{
		PutLatency:      2 * time.Microsecond,
		ProbeLatency:    10 * time.Microsecond,
		FlushPerEntry:   500 * time.Nanosecond,
		CompactPerEntry: 500 * time.Nanosecond,
	}
}

// sstable is one immutable sorted table, packed: entry i is its key's
// length as a uvarint, its key and its value, back to back in data up to
// ends[i], from the end of the entry before. Its index is one 4-byte
// offset an entry.
type sstable struct {
	data []byte
	ends []uint32
}

// newTable returns an empty table with room for n entries of size bytes
// in all (entrySize summed).
func newTable(n, size int) *sstable {
	if uint64(size) > math.MaxUint32 {
		panic("lsm: a table of over 4 GiB")
	}
	return &sstable{data: make([]byte, 0, size), ends: make([]uint32, 0, n)}
}

// entrySize is the room an entry of a klen-byte key and a vlen-byte value
// takes in a table's data.
func entrySize(klen, vlen int) int {
	return (bits.Len64(uint64(klen)|1)+6)/7 + klen + vlen
}

// appendEntry appends key and val as t's next entry: keys arrive in
// ascending order, and within the room newTable was given.
func appendEntry[K, V string | []byte](t *sstable, key K, val V) {
	t.data = binary.AppendUvarint(t.data, uint64(len(key)))
	t.data = append(append(t.data, key...), val...)
	t.ends = append(t.ends, uint32(len(t.data)))
}

// len returns the number of entries.
func (t *sstable) len() int { return len(t.ends) }

// entry returns entry i's key and value, aliasing the table's data.
func (t *sstable) entry(i int) (key, val []byte) {
	var start uint32
	if i > 0 {
		start = t.ends[i-1]
	}
	e := t.data[start:t.ends[i]]
	n, w := binary.Uvarint(e)
	return e[w : w+int(n)], e[w+int(n):]
}

// search returns the index of the first entry whose key is not below key.
func (t *sstable) search(key string) int {
	lo, hi := 0, t.len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k, _ := t.entry(m); string(k) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (t *sstable) get(key string) ([]byte, bool) {
	if i := t.search(key); i < t.len() {
		if k, v := t.entry(i); string(k) == key {
			return v, true
		}
	}
	return nil, false
}

// Stats counts tree activity.
type Stats struct {
	Puts        uint64
	Gets        uint64
	Scans       uint64
	Deletes     uint64
	Flushes     uint64
	Compactions uint64
	Probes      uint64
}

// DB is the LSM tree. Safe for concurrent use.
type DB struct {
	clk   *clock.Sim
	cfg   Config
	shape shape

	mu     sync.Mutex
	mem    map[string]string // the memtable: keys and values the tree copied
	l0     []*sstable        // newest first
	levels []*sstable        // levels[i] = L(i+1); nil when empty
	stats  Stats
}

// New creates an empty tree.
func New(clk *clock.Sim, cfg Config) *DB {
	return newShaped(clk, cfg, shape{MemtableEntries, L0CompactTrigger, maxLevels})
}

func newShaped(clk *clock.Sim, cfg Config, sh shape) *DB {
	return &DB{
		clk:    clk,
		cfg:    cfg,
		shape:  sh,
		mem:    make(map[string]string),
		levels: make([]*sstable, sh.levels),
	}
}

// Entry is one write of a batch: Value under Key, or a tombstone for Key
// when Delete is set (Value is then ignored).
type Entry struct {
	Key    string
	Value  []byte
	Delete bool
}

// Put inserts or overwrites a key: a one-entry batch.
func (db *DB) Put(key string, val []byte) {
	db.WriteBatch([]Entry{{Key: key, Value: val}})
}

// Delete writes a tombstone: a one-entry batch.
func (db *DB) Delete(key string) {
	db.WriteBatch([]Entry{{Key: key, Delete: true}})
}

// WriteBatch applies es in order, with LevelDB WriteBatch semantics: the
// tree ends exactly as the same sequence of Put and Delete calls would
// leave it — memtable, flush points, compactions and Stats — and the same
// virtual time passes, the entries' put latency in one sleep before the
// apply and every flush and compaction stall in one sleep after. The tree
// keeps copies of what it stores, so no key or value of es is referenced
// once WriteBatch returns: a table packs its entries, and the memtable cuts
// each run of entries up to its next flush from one string of its own.
//
// A run of MemtableEntries distinct keys that reaches an empty memtable
// is exactly the table the memtable would flush once it filled, so it is
// sorted once and pushed to L0 without passing through the memtable map.
// A run with a duplicate key would not fill the memtable; it takes the
// ordinary path.
func (db *DB) WriteBatch(es []Entry) {
	if len(es) == 0 {
		return
	}
	db.clk.Sleep(time.Duration(len(es)) * db.cfg.PutLatency)
	db.mu.Lock()
	var stall time.Duration
	var order []int         // the fast path's sort buffer, shared by its runs
	var run strings.Builder // the memtable's copy of the entries up to its next flush
	room := 0               // entries run has room for and has yet to take
	for len(es) > 0 {
		if n := db.shape.memtable; len(db.mem) == 0 && len(es) >= n {
			if order == nil {
				order = make([]int, n)
			}
			if t := runTable(es[:n], order); t != nil {
				for i := range es[:n] {
					db.countLocked(&es[i])
				}
				stall += db.pushL0Locked(t) + db.compactLocked()
				es = es[n:]
				continue
			}
		}
		if room == 0 {
			// run ends where the next flush may come, no sooner: the
			// entries a flush leaves behind share no string with those
			// it packed, so nothing outlives its memtable.
			room = min(len(es), db.shape.memtable-len(db.mem))
			run.Reset()
			run.Grow(runBytes(es[:room]))
		}
		e := &es[0]
		db.countLocked(e)
		from := run.Len()
		run.WriteString(e.Key)
		run.Write(e.value())
		s := run.String()
		db.mem[s[from:from+len(e.Key)]] = s[from+len(e.Key):]
		room--
		stall += db.maybeFlushLocked()
		es = es[1:]
	}
	db.mu.Unlock()
	db.clk.Sleep(stall)
}

// value is what the tree stores for e: its value, or the tombstone.
func (e *Entry) value() []byte {
	if e.Delete {
		return tombstone
	}
	return e.Value
}

// runBytes is the length of es's keys and stored values.
func runBytes(es []Entry) int {
	n := 0
	for i := range es {
		n += len(es[i].Key) + len(es[i].value())
	}
	return n
}

func (db *DB) countLocked(e *Entry) {
	if e.Delete {
		db.stats.Deletes++
	} else {
		db.stats.Puts++
	}
}

// runTable returns the table a memtable holding exactly run's entries
// flushes into, or nil when two of them share a key. It sorts run's
// indexes in order, which has run's length: no entry of run is kept.
func runTable(run []Entry, order []int) *sstable {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(run[a].Key, run[b].Key) })
	size := 0
	for i, j := range order {
		if i > 0 && run[j].Key == run[order[i-1]].Key {
			return nil
		}
		size += entrySize(len(run[j].Key), len(run[j].value()))
	}
	t := newTable(len(run), size)
	for _, j := range order {
		appendEntry(t, run[j].Key, run[j].value())
	}
	return t
}

// Get returns a copy of the latest value for key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.mu.Lock()
	db.stats.Gets++
	var out []byte
	ok, probes := false, 0
	if v, found := db.mem[key]; found {
		out, ok = liveCopy(v)
	} else if v, found := db.tablesGetLocked(key, &probes); found {
		out, ok = liveCopy(v)
	}
	db.stats.Probes += uint64(probes)
	probeCost := time.Duration(probes) * db.cfg.ProbeLatency
	db.mu.Unlock()
	db.clk.Sleep(probeCost)
	return out, ok
}

// tablesGetLocked returns key's value in the newest table holding it,
// counting in probes every table it consults.
func (db *DB) tablesGetLocked(key string, probes *int) ([]byte, bool) {
	for _, t := range db.l0 {
		*probes++
		if v, ok := t.get(key); ok {
			return v, true
		}
	}
	for _, t := range db.levels {
		if t == nil {
			continue
		}
		*probes++
		if v, ok := t.get(key); ok {
			return v, true
		}
	}
	return nil, false
}

// liveCopy returns a copy of v, or false when v is the tombstone.
func liveCopy[T string | []byte](v T) ([]byte, bool) {
	if isTombstone(v) {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Scan returns all live keys with the given prefix (merged across the
// memtable and every table, newest version wins). Like Get it charges one
// probe per table consulted — a scan reads every table, so its read
// amplification is the full table count. The values are cut from one
// buffer, each capped at its own length.
func (db *DB) Scan(prefix string) map[string][]byte {
	db.mu.Lock()
	tables := make([]*sstable, 0, 1+len(db.l0)+len(db.levels))
	tables = append(tables, tableFromMap(db.mem, prefix))
	tables = append(tables, db.l0...)
	for _, t := range db.levels {
		if t != nil {
			tables = append(tables, t)
		}
	}
	probes := len(tables) - 1 // every table but the memtable's
	merged := mergeTables(tables, prefix, true)
	db.stats.Scans++
	db.stats.Probes += uint64(probes)
	probeCost := time.Duration(probes) * db.cfg.ProbeLatency
	db.mu.Unlock()

	out := make(map[string][]byte, merged.len())
	keyLen := 0
	for i := 0; i < merged.len(); i++ {
		k, _ := merged.entry(i)
		keyLen += len(k)
	}
	var keys strings.Builder // every key of out is cut from it
	keys.Grow(keyLen)
	for i := 0; i < merged.len(); i++ {
		k, v := merged.entry(i)
		from := keys.Len()
		keys.Write(k)
		out[keys.String()[from:]] = v[:len(v):len(v)]
	}
	db.clk.Sleep(probeCost)
	return out
}

// maybeFlushLocked flushes the memtable and compacts as needed, returning
// the virtual stall the caller must absorb. Caller holds db.mu.
func (db *DB) maybeFlushLocked() time.Duration {
	if len(db.mem) < db.shape.memtable {
		return 0
	}
	return db.flushLocked() + db.compactLocked()
}

// Flush forces the memtable out (test/shutdown hook); returns after
// charging the stall.
func (db *DB) Flush() {
	db.mu.Lock()
	stall := db.flushLocked()
	db.mu.Unlock()
	db.clk.Sleep(stall)
}

func (db *DB) flushLocked() time.Duration {
	if len(db.mem) == 0 {
		return 0
	}
	t := tableFromMap(db.mem, "")
	clear(db.mem) // keeps the buckets the next fill grows back into
	return db.pushL0Locked(t)
}

// pushL0Locked adds a flushed table to L0 and returns the flush's stall.
func (db *DB) pushL0Locked(t *sstable) time.Duration {
	db.l0 = slices.Insert(db.l0, 0, t)
	db.stats.Flushes++
	return time.Duration(t.len()) * db.cfg.FlushPerEntry
}

// compactLocked runs the compactions a flush has made due, top down, and
// returns their stall.
func (db *DB) compactLocked() time.Duration {
	var stall time.Duration
	for lvl := -1; lvl < len(db.levels)-1; lvl++ {
		if !db.needsCompactLocked(lvl) {
			break
		}
		stall += db.compactLevelLocked(lvl)
	}
	return stall
}

func (db *DB) needsCompactLocked(lvl int) bool {
	if lvl == -1 {
		return len(db.l0) > db.shape.l0Trigger
	}
	next := db.levels[lvl]
	if next == nil || lvl+1 >= len(db.levels) {
		return false
	}
	limit := db.shape.memtable * pow(8, lvl+1)
	return next.len() > limit
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// compactLevelLocked merges level lvl (−1 = L0) into lvl+1.
func (db *DB) compactLevelLocked(lvl int) time.Duration {
	var inputs []*sstable
	if lvl == -1 {
		inputs = append(inputs, db.l0...) // newest first
		clear(db.l0)
		db.l0 = db.l0[:0] // its room serves the next flushes
	} else {
		if db.levels[lvl] == nil {
			return 0
		}
		inputs = append(inputs, db.levels[lvl])
		db.levels[lvl] = nil
	}
	target := lvl + 1
	if old := db.levels[target]; old != nil {
		inputs = append(inputs, old) // oldest last
	}
	dropTombstones := target == len(db.levels)-1
	merged := mergeTables(inputs, "", dropTombstones)
	db.levels[target] = merged
	db.stats.Compactions++
	n := 0
	for _, t := range inputs {
		n += t.len()
	}
	return time.Duration(n) * db.cfg.CompactPerEntry
}

// tableFromMap packs the memtable entries whose keys start with prefix.
func tableFromMap(m map[string]string, prefix string) *sstable {
	keys := make([]string, 0, len(m))
	size := 0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
			size += entrySize(len(k), len(v))
		}
	}
	slices.Sort(keys)
	t := newTable(len(keys), size)
	for _, k := range keys {
		appendEntry(t, k, m[k])
	}
	return t
}

// mergeTables merges the entries of tables (newest first) whose keys start
// with prefix into one table: each key once, with its newest value, and
// none whose newest value is the tombstone when dropTombstones is set. It
// walks the tables twice, sizing the table and then filling it.
func mergeTables(tables []*sstable, prefix string, dropTombstones bool) *sstable {
	m := merger{tables: tables, pos: make([]int, len(tables)), prefix: prefix}
	n, size := 0, 0
	m.rewind()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		if !dropTombstones || !isTombstone(v) {
			n++
			size += entrySize(len(k), len(v))
		}
	}
	t := newTable(n, size)
	m.rewind()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		if !dropTombstones || !isTombstone(v) {
			appendEntry(t, k, v)
		}
	}
	return t
}

// merger walks sorted tables, newest first, in key order over the keys
// that start with prefix: each key once, with its newest value.
type merger struct {
	tables []*sstable
	pos    []int // each table's next entry
	prefix string
}

// rewind moves every table to its first key not below the prefix.
func (m *merger) rewind() {
	for i, t := range m.tables {
		m.pos[i] = t.search(m.prefix)
	}
}

// next returns the smallest key left and its newest value; ok is false
// once no key with the prefix is left.
func (m *merger) next() (key, val []byte, ok bool) {
	for i, t := range m.tables {
		if m.pos[i] == t.len() {
			continue
		}
		if k, v := t.entry(m.pos[i]); !ok || bytes.Compare(k, key) < 0 {
			key, val, ok = k, v, true
		}
	}
	if !ok || len(key) < len(m.prefix) || string(key[:len(m.prefix)]) != m.prefix {
		return nil, nil, false
	}
	for i, t := range m.tables {
		if m.pos[i] < t.len() {
			if k, _ := t.entry(m.pos[i]); bytes.Equal(k, key) {
				m.pos[i]++
			}
		}
	}
	return key, val, true
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// TableCount reports (L0 tables, non-empty deeper levels) — diagnostics.
func (db *DB) TableCount() (l0, deeper int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.levels {
		if t != nil {
			deeper++
		}
	}
	return len(db.l0), deeper
}

// Len returns the number of live keys (full scan; diagnostics/tests).
func (db *DB) Len() int {
	return len(db.Scan(""))
}
