package lsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// batchShape is a tree small enough that a few dozen entries flush, cross
// its L0 trigger and compact L1 into the bottom level (which drops
// tombstones).
var batchShape = shape{memtable: 4, l0Trigger: 2, levels: 2}

// batchCfg charges a distinct cost per kind of work, so that any
// difference in what was done shows as a difference in virtual time.
func batchCfg() Config {
	return Config{
		PutLatency:      2 * time.Microsecond,
		ProbeLatency:    10 * time.Microsecond,
		FlushPerEntry:   300 * time.Nanosecond,
		CompactPerEntry: 700 * time.Nanosecond,
	}
}

// batchKeys is the key space of decodeBatches: more keys than L1 holds
// before it compacts (batchShape.memtable × 8), so level compactions happen.
const batchKeys = 64

// decodeBatches turns bytes into batches, two bytes per entry: the first
// byte's low six bits pick the key, bit 6 starts a new batch and bit 7
// makes the entry a delete; the second byte is the value. A trailing odd
// byte is ignored.
func decodeBatches(data []byte) [][]Entry {
	var batches [][]Entry
	var cur []Entry
	for i := 0; i+1 < len(data); i += 2 {
		op, v := data[i], data[i+1]
		if op&0x40 != 0 && len(cur) > 0 {
			batches, cur = append(batches, cur), nil
		}
		e := Entry{Key: fmt.Sprintf("k%02d", op&0x3f), Delete: op&0x80 != 0}
		if !e.Delete {
			e.Value = []byte{v, byte(i / 2)}
		}
		cur = append(cur, e)
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// genBatches draws the encoded batches of one equivalence episode: runs
// of distinct keys (which reach the fast path when the memtable is
// empty), runs with a duplicate placed inside the first memtable's worth,
// and random runs with deletes.
func genBatches(rng *rand.Rand) []byte {
	var data []byte
	for b := 0; b < 24; b++ {
		var keys []int
		switch rng.Intn(3) {
		case 0: // distinct keys
			keys = rng.Perm(batchKeys)[:rng.Intn(3*batchShape.memtable+1)]
		case 1: // a duplicate inside a would-be fast run
			keys = rng.Perm(batchKeys)[:2*batchShape.memtable]
			i := 1 + rng.Intn(batchShape.memtable-1)
			keys[i] = keys[rng.Intn(i)]
		default:
			for n := rng.Intn(12); n > 0; n-- {
				keys = append(keys, rng.Intn(batchKeys))
			}
		}
		for i, k := range keys {
			op := byte(k)
			if i == 0 {
				op |= 0x40
			}
			if rng.Intn(5) == 0 {
				op |= 0x80
			}
			data = append(data, op, byte(rng.Intn(256)))
		}
	}
	return data
}

// equivalenceCoverage records what the checked episodes exercised.
type equivalenceCoverage struct {
	fastStarts, dupStarts, dirtyStarts, bottomCompactions int
}

// checkBatchEquivalence writes each batch to one tree with WriteBatch and
// to another as one-entry batches (each smaller than a memtable, so never
// the fast path), and requires the same Stats, TableCount and virtual
// time after every batch, then the same Get of every key and Scan("").
func checkBatchEquivalence(t *testing.T, clk *clock.Sim, batches [][]Entry, cov *equivalenceCoverage) {
	t.Helper()
	batched, single := newShaped(clk, batchCfg(), batchShape), newShaped(clk, batchCfg(), batchShape)
	n := batchShape.memtable
	for bi, es := range batches {
		if cov != nil {
			switch {
			case len(batched.mem) > 0:
				cov.dirtyStarts++
			case len(es) >= n && distinctKeys(es[:n]):
				cov.fastStarts++
			case len(es) >= n:
				cov.dupStarts++
			}
		}
		start := clk.Now()
		batched.WriteBatch(append([]Entry(nil), es...))
		batchTime := clk.Since(start)
		start = clk.Now()
		for _, e := range es {
			single.WriteBatch([]Entry{e})
		}
		if singleTime := clk.Since(start); batchTime != singleTime {
			t.Fatalf("batch %d (%d entries): WriteBatch took %v, one at a time %v", bi, len(es), batchTime, singleTime)
		}
		if b, s := batched.Stats(), single.Stats(); b != s {
			t.Fatalf("batch %d: stats %+v, one at a time %+v", bi, b, s)
		}
		bl0, bdeep := batched.TableCount()
		sl0, sdeep := single.TableCount()
		if bl0 != sl0 || bdeep != sdeep {
			t.Fatalf("batch %d: tables (%d, %d), one at a time (%d, %d)", bi, bl0, bdeep, sl0, sdeep)
		}
		if cov != nil && batched.levels[len(batched.levels)-1] != nil {
			cov.bottomCompactions++
		}
	}
	for k := 0; k < batchKeys; k++ {
		key := fmt.Sprintf("k%02d", k)
		start := clk.Now()
		bv, bok := batched.Get(key)
		batchTime := clk.Since(start)
		start = clk.Now()
		sv, sok := single.Get(key)
		if singleTime := clk.Since(start); bok != sok || string(bv) != string(sv) || batchTime != singleTime {
			t.Fatalf("Get(%s): %q %v in %v, one at a time %q %v in %v", key, bv, bok, batchTime, sv, sok, singleTime)
		}
	}
	if b, s := batched.Scan(""), single.Scan(""); !reflect.DeepEqual(b, s) {
		t.Fatalf("Scan: %v, one at a time %v", b, s)
	}
	if b, s := batched.Stats(), single.Stats(); b != s {
		t.Fatalf("final stats %+v, one at a time %+v", b, s)
	}
}

func distinctKeys(es []Entry) bool {
	seen := make(map[string]bool, len(es))
	for _, e := range es {
		if seen[e.Key] {
			return false
		}
		seen[e.Key] = true
	}
	return true
}

// equivalenceSeeds are TestWriteBatchMatchesOneAtATime's episodes and
// FuzzWriteBatch's seed corpus.
const equivalenceSeeds = 64

// TestWriteBatchMatchesOneAtATime is a seeded differential test of
// WriteBatch against the same entries written one at a time: deletes,
// duplicates inside a would-be fast run, batches that start on a
// non-empty memtable, and batches that cross the L0 trigger and a level
// compaction.
func TestWriteBatchMatchesOneAtATime(t *testing.T) {
	var cov equivalenceCoverage
	for seed := int64(1); seed <= equivalenceSeeds && !t.Failed(); seed++ {
		simtest.Run(t, func(clk *clock.Sim) {
			batches := decodeBatches(genBatches(rand.New(rand.NewSource(seed))))
			checkBatchEquivalence(t, clk, batches, &cov)
		})
	}
	if t.Failed() {
		return
	}
	if cov.fastStarts == 0 || cov.dupStarts == 0 || cov.dirtyStarts == 0 || cov.bottomCompactions == 0 {
		t.Fatalf("episodes missed a case: %+v", cov)
	}
}

// FuzzWriteBatch holds WriteBatch to the one-at-a-time writes of the same
// entries for arbitrary batch sequences (see decodeBatches).
func FuzzWriteBatch(f *testing.F) {
	for seed := int64(1); seed <= equivalenceSeeds; seed++ {
		f.Add(genBatches(rand.New(rand.NewSource(seed))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		simtest.Run(t, func(clk *clock.Sim) {
			checkBatchEquivalence(t, clk, decodeBatches(data), nil)
		})
	})
}
