// Package lsm is a small log-structured merge tree modelled on LevelDB,
// the persistent metadata store of IndexFS (§4, §5.7): a mutable
// memtable, sorted string tables (SSTables) flushed into level 0, and
// leveled compaction into non-overlapping higher levels. WriteBatch is the
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
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"lambdafs/internal/clock"
)

// tombstone marks deleted keys until bottom-level compaction drops them.
var tombstone = []byte{0xde, 0xad, 0xbe, 0xef, 0x00}

func isTombstone(v []byte) bool {
	return len(v) == len(tombstone) && string(v) == string(tombstone)
}

// Config tunes the tree and its latency model.
type Config struct {
	// MemtableEntries triggers a flush.
	MemtableEntries int
	// L0CompactTrigger is the number of L0 tables that triggers
	// compaction into L1.
	L0CompactTrigger int
	// MaxLevels bounds the tree depth (each level is kept as one sorted
	// table; compaction into the bottom level drops tombstones).
	MaxLevels int

	// PutLatency is charged per memtable insert.
	PutLatency time.Duration
	// ProbeLatency is charged per table consulted on a read.
	ProbeLatency time.Duration
	// FlushPerEntry / CompactPerEntry are charged synchronously to the
	// operation that triggers the flush or compaction (write stalls).
	FlushPerEntry   time.Duration
	CompactPerEntry time.Duration
}

// DefaultConfig returns LevelDB-flavoured defaults.
func DefaultConfig() Config {
	return Config{
		MemtableEntries:  4096,
		L0CompactTrigger: 4,
		MaxLevels:        4,
		PutLatency:       2 * time.Microsecond,
		ProbeLatency:     10 * time.Microsecond,
		FlushPerEntry:    500 * time.Nanosecond,
		CompactPerEntry:  500 * time.Nanosecond,
	}
}

// sstable is one immutable sorted table.
type sstable struct {
	keys []string
	vals [][]byte
}

func (t *sstable) get(key string) ([]byte, bool) {
	i := sort.SearchStrings(t.keys, key)
	if i < len(t.keys) && t.keys[i] == key {
		return t.vals[i], true
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
	clk *clock.Sim
	cfg Config

	mu     sync.Mutex
	mem    map[string][]byte
	l0     []*sstable // newest first
	levels []*sstable // levels[i] = L(i+1); nil when empty
	stats  Stats
}

// New creates an empty tree.
func New(clk *clock.Sim, cfg Config) *DB {
	if cfg.MemtableEntries <= 0 {
		cfg.MemtableEntries = 4096
	}
	if cfg.L0CompactTrigger <= 0 {
		cfg.L0CompactTrigger = 4
	}
	if cfg.MaxLevels <= 0 {
		cfg.MaxLevels = 4
	}
	return &DB{
		clk:    clk,
		cfg:    cfg,
		mem:    make(map[string][]byte),
		levels: make([]*sstable, cfg.MaxLevels),
	}
}

// Entry is one write of a batch: Value under Key, or a tombstone for Key
// when Delete is set (Value is then ignored).
type Entry struct {
	Key    string
	Value  []byte
	Delete bool
}

// Put inserts or overwrites a key: a one-entry batch of a copy of val.
func (db *DB) Put(key string, val []byte) {
	db.WriteBatch([]Entry{{Key: key, Value: append([]byte(nil), val...)}})
}

// Delete writes a tombstone: a one-entry batch.
func (db *DB) Delete(key string) {
	db.WriteBatch([]Entry{{Key: key, Delete: true}})
}

// WriteBatch applies es in order, with LevelDB WriteBatch semantics: the
// tree ends exactly as the same sequence of Put and Delete calls would
// leave it — memtable, flush points, compactions and Stats — and the same
// virtual time passes, the entries' put latency in one sleep before the
// apply and every flush and compaction stall in one sleep after. The
// batch takes ownership of its values: the caller must not modify them
// afterwards.
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
	var scratch []Entry // the fast path's sort buffer, shared by its runs
	for len(es) > 0 {
		if n := db.cfg.MemtableEntries; len(db.mem) == 0 && len(es) >= n {
			if scratch == nil {
				scratch = make([]Entry, n)
			}
			if t := runTable(es[:n], scratch); t != nil {
				for i := range scratch {
					db.countLocked(&scratch[i])
				}
				stall += db.pushL0Locked(t) + db.compactLocked()
				es = es[n:]
				continue
			}
		}
		e := &es[0]
		db.countLocked(e)
		db.mem[e.Key] = e.value()
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

func (db *DB) countLocked(e *Entry) {
	if e.Delete {
		db.stats.Deletes++
	} else {
		db.stats.Puts++
	}
}

// runTable returns the table a memtable holding exactly run's entries
// flushes into, or nil when two of them share a key. It sorts a copy of
// run in scratch, which has run's length.
func runTable(run, scratch []Entry) *sstable {
	copy(scratch, run)
	slices.SortFunc(scratch, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	for i := 1; i < len(scratch); i++ {
		if scratch[i].Key == scratch[i-1].Key {
			return nil
		}
	}
	t := &sstable{keys: make([]string, len(scratch)), vals: make([][]byte, len(scratch))}
	for i := range scratch {
		t.keys[i], t.vals[i] = scratch[i].Key, scratch[i].value()
	}
	return t
}

// Get returns the latest value for key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.mu.Lock()
	db.stats.Gets++
	probes := 0
	val, found := db.mem[key]
	if !found {
		for _, t := range db.l0 {
			probes++
			if v, ok := t.get(key); ok {
				val, found = v, true
				break
			}
		}
	}
	if !found {
		for _, t := range db.levels {
			if t == nil {
				continue
			}
			probes++
			if v, ok := t.get(key); ok {
				val, found = v, true
				break
			}
		}
	}
	db.stats.Probes += uint64(probes)
	probeCost := time.Duration(probes) * db.cfg.ProbeLatency
	var out []byte
	ok := found && !isTombstone(val)
	if ok {
		out = append([]byte(nil), val...)
	}
	db.mu.Unlock()
	db.clk.Sleep(probeCost)
	return out, ok
}

// Scan returns all live keys with the given prefix (merged across the
// memtable and every table, newest version wins). Like Get it charges one
// probe per table consulted — a scan reads every table, so its read
// amplification is the full table count.
func (db *DB) Scan(prefix string) map[string][]byte {
	db.mu.Lock()
	merged := make(map[string][]byte)
	// Oldest first so newer versions overwrite.
	for i := len(db.levels) - 1; i >= 0; i-- {
		if t := db.levels[i]; t != nil {
			for j, k := range t.keys {
				if strings.HasPrefix(k, prefix) {
					merged[k] = t.vals[j]
				}
			}
		}
	}
	for i := len(db.l0) - 1; i >= 0; i-- {
		t := db.l0[i]
		for j, k := range t.keys {
			if strings.HasPrefix(k, prefix) {
				merged[k] = t.vals[j]
			}
		}
	}
	for k, v := range db.mem {
		if strings.HasPrefix(k, prefix) {
			merged[k] = v
		}
	}
	out := make(map[string][]byte, len(merged))
	for k, v := range merged {
		if !isTombstone(v) {
			out[k] = append([]byte(nil), v...)
		}
	}
	probes := len(db.l0)
	for _, t := range db.levels {
		if t != nil {
			probes++
		}
	}
	db.stats.Scans++
	db.stats.Probes += uint64(probes)
	probeCost := time.Duration(probes) * db.cfg.ProbeLatency
	db.mu.Unlock()
	db.clk.Sleep(probeCost)
	return out
}

// maybeFlushLocked flushes the memtable and compacts as needed, returning
// the virtual stall the caller must absorb. Caller holds db.mu.
func (db *DB) maybeFlushLocked() time.Duration {
	if len(db.mem) < db.cfg.MemtableEntries {
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
	t := tableFromMap(db.mem)
	db.mem = make(map[string][]byte)
	return db.pushL0Locked(t)
}

// pushL0Locked adds a flushed table to L0 and returns the flush's stall.
func (db *DB) pushL0Locked(t *sstable) time.Duration {
	db.l0 = append([]*sstable{t}, db.l0...)
	db.stats.Flushes++
	return time.Duration(len(t.keys)) * db.cfg.FlushPerEntry
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
		return len(db.l0) > db.cfg.L0CompactTrigger
	}
	next := db.levels[lvl]
	if next == nil || lvl+1 >= len(db.levels) {
		return false
	}
	limit := db.cfg.MemtableEntries * pow(8, lvl+1)
	return len(next.keys) > limit
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
		db.l0 = nil
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
	merged := mergeTables(inputs, dropTombstones)
	db.levels[target] = merged
	db.stats.Compactions++
	n := 0
	for _, t := range inputs {
		n += len(t.keys)
	}
	return time.Duration(n) * db.cfg.CompactPerEntry
}

func tableFromMap(m map[string][]byte) *sstable {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return &sstable{keys: keys, vals: vals}
}

// mergeTables merges tables (newest first) into one sorted table.
func mergeTables(tables []*sstable, dropTombstones bool) *sstable {
	merged := make(map[string][]byte)
	for i := len(tables) - 1; i >= 0; i-- {
		t := tables[i]
		for j, k := range t.keys {
			merged[k] = t.vals[j]
		}
	}
	if dropTombstones {
		for k, v := range merged {
			if isTombstone(v) {
				delete(merged, k)
			}
		}
	}
	return tableFromMap(merged)
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
