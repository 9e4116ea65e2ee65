// The weak package is Go 1.24's; the module's go line is older.

//go:build go1.24

package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// writeCut writes n entries whose keys are cut from one string and whose
// values from one buffer, as a checkpoint round builds its batch, and
// returns weak pointers to the two. tag is one byte, so a value is 8.
func writeCut(db *DB, n int, tag string) (keys, vals weak.Pointer[byte]) {
	var sb strings.Builder
	buf := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%s%05d", tag, i)
		buf = fmt.Appendf(buf, "=%s%06d", tag, i)
	}
	s := sb.String()
	es := make([]Entry, n)
	klen := len(tag) + 5
	for i := range es {
		es[i] = Entry{Key: s[i*klen : (i+1)*klen], Value: buf[i*8 : (i+1)*8 : (i+1)*8]}
	}
	db.WriteBatch(es)
	return weak.Make(unsafe.StringData(s)), weak.Make(&buf[0])
}

// TestWriteBatchKeepsNoCallerBuffer: once WriteBatch returns, the tree
// references nothing of the batch. A run the fast path turns into a table
// and a run the memtable takes both leave the strings and buffers their
// keys and values were cut from collectable, and every value still reads
// back.
func TestWriteBatchKeepsNoCallerBuffer(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		db := fastDB(clk, 64)
		fastKeys, fastVals := writeCut(db, 64, "f")
		if l0, _ := db.TableCount(); l0 != 1 {
			t.Fatalf("the fast-path run left %d L0 tables, want 1", l0)
		}
		memKeys, memVals := writeCut(db, 10, "m")
		if n := len(db.mem); n != 10 {
			t.Fatalf("the memtable run left %d memtable entries, want 10", n)
		}
		runtime.GC()
		for _, w := range []struct {
			what string
			ptr  weak.Pointer[byte]
		}{
			{"fast-path keys", fastKeys}, {"fast-path values", fastVals},
			{"memtable keys", memKeys}, {"memtable values", memVals},
		} {
			if w.ptr.Value() != nil {
				t.Errorf("the %s' buffer is still reachable after WriteBatch and a collection", w.what)
			}
		}
		for _, c := range []struct {
			tag string
			n   int
		}{{"f", 64}, {"m", 10}} {
			for i := 0; i < c.n; i++ {
				want := fmt.Sprintf("=%s%06d", c.tag, i)
				if got, ok := db.Get(fmt.Sprintf("%s%05d", c.tag, i)); !ok || !bytes.Equal(got, []byte(want)) {
					t.Fatalf("Get(%s%05d) = %q %v, want %q", c.tag, i, got, ok, want)
				}
			}
		}
	})
}
