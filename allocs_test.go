//go:build !race

package lambdafs

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lambdafs/internal/datanode"
	"lambdafs/internal/namespace"
)

// Through rpc.Client.Do, the path every workload takes, a warm cluster
// answers a cache-hit read, a stat and an ls of a 64-entry directory
// without allocating: the client's call record holds the reply storage the
// NameNode writes into, the ls's entries in the storage's room, the chain
// is on the engine's stack and every clock wait reuses a parked waiter. A create
// allocates its rows alone: the file's row and its parent's new version
// while no DataNode is published, and its block list and replica locations
// besides once one is. Replacement is off, so each call takes its TCP
// path alone. (Not under -race: the detector allocates.)
func TestDoAllocs(t *testing.T) {
	cfg := quickConfig()
	cfg.RPC.HTTPReplaceProb = 0
	c := newTestCluster(t, cfg)
	sys := c.System()
	cl := c.VM().NewClient("pin", sys.Ring(), sys)
	do := func(op namespace.OpType, path string) *namespace.Response {
		resp, err := cl.Do(op, path, "")
		if err != nil || !resp.OK() {
			t.Fatalf("%v %s: %+v %v", op, path, resp, err)
		}
		return resp
	}
	c.Run(func() {
		do(namespace.OpMkdirs, "/d")
		do(namespace.OpCreate, "/d/f")
		do(namespace.OpRead, "/d/f") // the fill
		do(namespace.OpMkdirs, "/e")
		for i := range 64 {
			do(namespace.OpCreate, fmt.Sprintf("/e/f%02d", i))
		}
		do(namespace.OpLs, "/e") // the fill
		read := func() {
			if !do(namespace.OpRead, "/d/f").CacheHit {
				t.Fatal("read /d/f missed the cache")
			}
		}
		stat := func() {
			if !do(namespace.OpStat, "/d/f").CacheHit {
				t.Fatal("stat /d/f missed the cache")
			}
		}
		ls := func() {
			if resp := do(namespace.OpLs, "/e"); !resp.CacheHit || len(resp.Entries) != 64 {
				t.Fatalf("ls /e: %+v, want a cache hit with 64 entries", resp)
			}
		}
		// Warm up: the TCP connection, the latency window that arms
		// hedging, the clock's and the call records' free lists, the
		// reply storage's room for entries.
		for range 64 {
			read()
			stat()
			ls()
		}
		for _, pin := range []struct {
			what string
			op   func()
		}{{"a cache-hit read", read}, {"a cache-hit stat", stat}, {"a cache-hit ls of a 64-entry directory", ls}} {
			if got := testing.AllocsPerRun(100, pin.op); got != 0 {
				t.Errorf("%s through rpc.Client.Do: %v allocs, want 0", pin.what, got)
			}
		}
		create := func() { do(namespace.OpCreate, "/d/g") }
		remove := func() { do(namespace.OpDelete, "/d/g") }
		// The mean keeps its fraction, and a stray runtime allocation
		// lands in about one run of a thousand, so the pin allows a tenth of
		// an object over the count: half an object per call still fails it.
		if got := allocsBetween(remove, create); got < 2 || got > 2.1 {
			t.Errorf("a create through rpc.Client.Do: %v allocs, want 2 (its row and its parent's new version)", got)
		}

		// With one DataNode published, the file gets a block: its block
		// list and its replica locations are two objects more, and the
		// NameNode's DataNode view picks the locations from its reports in
		// place. The sleep outlasts the view's 10 s TTL, so the next
		// create refreshes it.
		if err := datanode.New(c.Clock(), c.Store(), "dn1", time.Second).Publish(); err != nil {
			t.Fatal(err)
		}
		c.Clock().Sleep(11 * time.Second)
		for range 64 {
			read()
			stat()
		}
		remove()
		create()
		if n := do(namespace.OpRead, "/d/g"); len(n.Blocks) != 1 {
			t.Fatalf("a create with a DataNode published made %d blocks, want 1", len(n.Blocks))
		}
		remove()
		if got := allocsBetween(remove, create); got < 4 || got > 4.1 {
			t.Errorf("a create with a DataNode published: %v allocs, want 4 (its row, its block list and locations, and its parent's new version)", got)
		}
	})
}

// TestClientAllocs pins the public client's typed calls on a warm cluster,
// from a registered goroutine: each allocates its turn's closure and the
// one object holding its results, and copies out only what it returns — a
// stat and an open (no DataNode runs, so the file has no blocks) nothing
// more, an ls of a file its one entry and an ls of a directory its
// entries. (Not under -race: the detector
// allocates.)
func TestClientAllocs(t *testing.T) {
	cfg := quickConfig()
	cfg.RPC.HTTPReplaceProb = 0
	c := newTestCluster(t, cfg)
	cl := c.NewClient("typed")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Run(func() {
		must(cl.MkdirAll("/d"))
		must(cl.Create("/d/f"))
		stat := func() { _, err := cl.Stat("/d/f"); must(err) }
		open := func() { _, _, err := cl.Open("/d/f"); must(err) }
		list := func() { _, err := cl.List("/d/f"); must(err) }
		must(cl.MkdirAll("/e"))
		for i := range 64 {
			must(cl.Create(fmt.Sprintf("/e/f%02d", i)))
		}
		listDir := func() {
			if entries, err := cl.List("/e"); err != nil || len(entries) != 64 {
				t.Fatalf("List /e: %d entries, %v; want 64", len(entries), err)
			}
		}
		for range 64 { // as in TestDoAllocs
			stat()
			open()
			list()
			listDir()
		}
		for _, pin := range []struct {
			what string
			op   func()
			want float64
		}{{"Stat", stat, 2}, {"Open", open, 2}, {"List of a file", list, 3}, {"List of a 64-entry directory", listDir, 3}} {
			if got := testing.AllocsPerRun(100, pin.op); got != pin.want {
				t.Errorf("a cache-hit %s through lambdafs.Client: %v allocs, want %v", pin.what, got, pin.want)
			}
		}
	})
}

// allocsBetween is the mean count of objects op allocates over 100 runs,
// each after an uncounted prep, on one P; the first run warms up,
// uncounted too. Unlike testing.AllocsPerRun, the mean keeps its fraction,
// so an object allocated every other run shows.
func allocsBetween(prep, op func()) float64 {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var ms runtime.MemStats
	var mallocs uint64
	for range runs {
		prep()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	return float64(mallocs) / runs
}
