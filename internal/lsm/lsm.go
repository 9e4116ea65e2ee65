// Package lsm is a small log-structured merge tree modelled on LevelDB,
// the persistent metadata store of IndexFS (§4, §5.7): a mutable
// memtable, sorted string tables (SSTables) flushed into level 0, and
// leveled compaction into non-overlapping higher levels. Writes are fast
// (memtable inserts) but occasionally stall on flush/compaction; reads
// pay a probe per table consulted (read amplification). Deletes are
// tombstones dropped at the bottom level.
//
// The latency model charges virtual time for puts, per-table probes, and
// flush/compaction work, which is what gives IndexFS its LSM-shaped
// write/read asymmetry in the Figure 16 reproduction.
package lsm

import (
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

// Put inserts or overwrites a key.
func (db *DB) Put(key string, val []byte) {
	db.clk.Sleep(db.cfg.PutLatency)
	db.mu.Lock()
	db.stats.Puts++
	db.mem[key] = append([]byte(nil), val...)
	stall := db.maybeFlushLocked()
	db.mu.Unlock()
	db.clk.Sleep(stall)
}

// Delete writes a tombstone.
func (db *DB) Delete(key string) {
	db.clk.Sleep(db.cfg.PutLatency)
	db.mu.Lock()
	db.stats.Deletes++
	db.mem[key] = append([]byte(nil), tombstone...)
	stall := db.maybeFlushLocked()
	db.mu.Unlock()
	db.clk.Sleep(stall)
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
	var stall time.Duration
	stall += db.flushLocked()
	for lvl := -1; lvl < len(db.levels)-1; lvl++ {
		if !db.needsCompactLocked(lvl) {
			break
		}
		stall += db.compactLocked(lvl)
	}
	return stall
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
	db.l0 = append([]*sstable{t}, db.l0...)
	db.mem = make(map[string][]byte)
	db.stats.Flushes++
	return time.Duration(len(t.keys)) * db.cfg.FlushPerEntry
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

// compactLocked merges level lvl (−1 = L0) into lvl+1.
func (db *DB) compactLocked(lvl int) time.Duration {
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
