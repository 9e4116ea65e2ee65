package indexfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/rpc"
	"lambdafs/internal/simtest"
)

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.NetOneWay = 0
	cfg.OpCPUCost = 0
	cfg.LSM.PutLatency = 0
	cfg.LSM.ProbeLatency = 0
	cfg.LSM.FlushPerEntry = 0
	cfg.LSM.CompactPerEntry = 0
	return cfg
}

func TestIndexFSMknodGetattr(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		c := New(clk, fastCfg())
		cl := c.NewClient("c1")
		if err := cl.Mknod("/d/f1"); err != nil {
			t.Fatal(err)
		}
		a, ok, err := cl.Getattr("/d/f1")
		if err != nil || !ok || a.Mode != 0o644 {
			t.Fatalf("getattr = %+v %v %v", a, ok, err)
		}
		if _, ok, _ := cl.Getattr("/d/missing"); ok {
			t.Fatal("phantom attr")
		}
		if err := cl.Mknod("bad"); err == nil {
			t.Fatal("invalid path accepted")
		}
		mk, gets := c.Ops()
		if mk != 1 || gets != 2 {
			t.Fatalf("ops = %d/%d", mk, gets)
		}
	})
}

func TestIndexFSPartitioningByDirectory(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		c := New(clk, fastCfg())
		cl := c.NewClient("c1")
		// All files of a directory live in the same partition.
		for i := 0; i < 20; i++ {
			if err := cl.Mknod(fmt.Sprintf("/dir/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		owner := c.serverFor("/dir/f0")
		if got := len(owner.db.Scan("/dir/")); got != 20 {
			t.Fatalf("owner partition holds %d of 20 rows", got)
		}
		for _, s := range c.servers {
			if s != owner && len(s.db.Scan("/dir/")) != 0 {
				t.Fatal("directory rows leaked across partitions")
			}
		}
	})
}

func TestIndexFSConcurrentClients(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		c := New(clk, fastCfg())
		wg := clock.NewGroup(clk)
		for w := 0; w < 8; w++ {
			wg.Go(func() {
				cl := c.NewClient(fmt.Sprintf("c%d", w))
				for i := 0; i < 100; i++ {
					p := fmt.Sprintf("/w%d/f%d", w, i)
					if err := cl.Mknod(p); err != nil {
						t.Errorf("mknod: %v", err)
						return
					}
				}
				for i := 0; i < 100; i++ {
					p := fmt.Sprintf("/w%d/f%d", w, i)
					if _, ok, _ := cl.Getattr(p); !ok {
						t.Errorf("lost %s", p)
						return
					}
				}
			})
		}
		wg.Wait()
		if st := c.LSMStats(); st.Puts != 800 {
			t.Fatalf("lsm puts = %d", st.Puts)
		}
	})
}

func newLambda(t *testing.T, clk *clock.Sim) (*LambdaSystem, *rpc.VM, *faas.Platform) {
	t.Helper()
	fCfg := faas.DefaultConfig()
	fCfg.ColdStart = 0
	fCfg.GatewayLatency = 0
	fCfg.IdleReclaim = 0
	p := faas.New(clk, fCfg)
	t.Cleanup(p.Close)
	lCfg := DefaultLambdaConfig()
	lCfg.Deployments = 4
	lCfg.OpCPUCost = 0
	lCfg.LSM.PutLatency = 0
	lCfg.LSM.ProbeLatency = 0
	lCfg.LSM.FlushPerEntry = 0
	lCfg.LSM.CompactPerEntry = 0
	sys := NewLambda(clk, p, lCfg)
	rCfg := rpc.DefaultConfig()
	rCfg.TCPOneWay = 0
	rCfg.HTTPReplaceProb = 0
	rCfg.Hedging = false
	rCfg.BackoffBase = time.Millisecond
	vm := rpc.NewVM(clk, rCfg)
	return sys, vm, p
}

func TestLambdaIndexFSLifecycle(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		sys, vm, _ := newLambda(t, clk)
		c := sys.NewClient(vm, "c1")
		if err := c.Mknod("/λ/f"); err != nil {
			t.Fatal(err)
		}
		a, ok, err := c.Getattr("/λ/f")
		if err != nil || !ok || a.Mode != 0o644 {
			t.Fatalf("getattr = %+v %v %v", a, ok, err)
		}
		if _, ok, _ := c.Getattr("/λ/ghost"); ok {
			t.Fatal("phantom attr")
		}
	})
}

func TestLambdaIndexFSCacheHit(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		sys, vm, _ := newLambda(t, clk)
		c := sys.NewClient(vm, "c1")
		if err := c.Mknod("/hit/f"); err != nil {
			t.Fatal(err)
		}
		// The function that served the mknod caches the attr; the getattr
		// routed to the same deployment should be servable without the LSM.
		before := lsmGets(sys)
		if _, ok, err := c.Getattr("/hit/f"); !ok || err != nil {
			t.Fatalf("getattr: %v %v", ok, err)
		}
		if _, ok, err := c.Getattr("/hit/f"); !ok || err != nil {
			t.Fatalf("getattr: %v %v", ok, err)
		}
		after := lsmGets(sys)
		if after-before > 1 {
			t.Fatalf("cache ineffective: %d LSM gets for cached reads", after-before)
		}
	})
}

func lsmGets(sys *LambdaSystem) uint64 {
	var n uint64
	for _, db := range sys.lsms {
		n += db.Stats().Gets
	}
	return n
}

func TestLambdaIndexFSPersistsThroughInstanceDeath(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		sys, vm, p := newLambda(t, clk)
		c := sys.NewClient(vm, "c1")
		if err := c.Mknod("/durable/f"); err != nil {
			t.Fatal(err)
		}
		// Kill every instance: the cache dies, LevelDB survives.
		for dep := 0; dep < 4; dep++ {
			for p.KillOneInstance(dep) {
			}
		}
		if _, ok, err := c.Getattr("/durable/f"); !ok || err != nil {
			t.Fatalf("metadata lost with instances: %v %v", ok, err)
		}
	})
}

func TestLambdaIndexFSConcurrentTreeTest(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		sys, vm, _ := newLambda(t, clk)
		wg := clock.NewGroup(clk)
		for w := 0; w < 6; w++ {
			wg.Go(func() {
				c := sys.NewClient(vm, fmt.Sprintf("c%d", w))
				for i := 0; i < 50; i++ {
					if err := c.Mknod(fmt.Sprintf("/tt%d/f%d", w, i)); err != nil {
						t.Errorf("mknod: %v", err)
						return
					}
				}
				for i := 0; i < 50; i++ {
					if _, ok, err := c.Getattr(fmt.Sprintf("/tt%d/f%d", w, i)); !ok || err != nil {
						t.Errorf("getattr: %v %v", ok, err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
}

func TestAttrCodecRoundTrip(t *testing.T) {
	a := Attr{Mode: 0o755, Size: 1 << 30, Ctime: 123456789}
	got, ok := decodeAttr(encodeAttr(a))
	if !ok || got != a {
		t.Fatalf("round trip = %+v %v", got, ok)
	}
	if _, ok := decodeAttr([]byte("short")); ok {
		t.Fatal("bad length accepted")
	}
}

// FuzzDecodeAttr: an encoded Attr decodes to itself, every 20-byte row
// decodes and re-encodes to the same bytes, and every other length is
// rejected. Seed corpus under testdata/fuzz/FuzzDecodeAttr.
func FuzzDecodeAttr(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, mode uint32, size, ctime int64) {
		a := Attr{Mode: mode, Size: size, Ctime: ctime}
		if got, ok := decodeAttr(encodeAttr(a)); !ok || got != a {
			t.Fatalf("decodeAttr(encodeAttr(%+v)) = %+v, %v", a, got, ok)
		}
		got, ok := decodeAttr(raw)
		if len(raw) != 20 {
			if ok {
				t.Fatalf("decodeAttr accepted %d bytes as %+v", len(raw), got)
			}
			return
		}
		if !ok {
			t.Fatalf("decodeAttr rejected the 20-byte row %x", raw)
		}
		if again := encodeAttr(got); !bytes.Equal(again, raw) {
			t.Fatalf("decodeAttr(%x) = %+v, which encodes to %x", raw, got, again)
		}
	})
}
