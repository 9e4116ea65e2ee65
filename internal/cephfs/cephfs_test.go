package cephfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

func fastSys(clk *clock.Sim) *System {
	cfg := DefaultConfig()
	cfg.NetOneWay = 0
	cfg.ReadCPUCost = 0
	cfg.WriteCPUCost = 0
	cfg.CapRevokeCost = 0
	cfg.JournalLatency = 0
	return New(clk, cfg)
}

func cok(t *testing.T, c *Client, op namespace.OpType, path, dest string) *namespace.Response {
	t.Helper()
	r, err := c.Do(op, path, dest)
	if err != nil {
		t.Fatalf("%v %s: %v", op, path, err)
	}
	if !r.OK() {
		t.Fatalf("%v %s: %s", op, path, r.Err)
	}
	return r
}

func cerr(t *testing.T, c *Client, op namespace.OpType, path, dest string, want error) {
	t.Helper()
	r, _ := c.Do(op, path, dest)
	if !errors.Is(r.Error(), want) {
		t.Fatalf("%v %s: err=%v, want %v", op, path, r.Error(), want)
	}
}

func TestLifecycle(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		c := s.NewClient("c1")
		cok(t, c, namespace.OpMkdirs, "/a/b", "")
		cok(t, c, namespace.OpCreate, "/a/b/f", "")
		cerr(t, c, namespace.OpCreate, "/a/b/f", "", namespace.ErrExists)
		cok(t, c, namespace.OpStat, "/a/b/f", "")
		cok(t, c, namespace.OpRead, "/a/b/f", "")
		cerr(t, c, namespace.OpRead, "/a/b", "", namespace.ErrIsDir)
		ls := cok(t, c, namespace.OpLs, "/a/b", "")
		if len(ls.Entries) != 1 || ls.Entries[0].Name != "f" {
			t.Fatalf("ls = %+v", ls.Entries)
		}
		cok(t, c, namespace.OpMv, "/a/b/f", "/a/g")
		cerr(t, c, namespace.OpStat, "/a/b/f", "", namespace.ErrNotFound)
		cok(t, c, namespace.OpDelete, "/a/g", "")
		cerr(t, c, namespace.OpStat, "/a/g", "", namespace.ErrNotFound)
		cerr(t, c, namespace.OpMv, "/a", "/a/b/in", namespace.ErrMvIntoSelf)
	})
}

func TestCapabilityHitOnRepeatRead(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		c := s.NewClient("c1")
		cok(t, c, namespace.OpCreate, "/f", "")
		cok(t, c, namespace.OpStat, "/f", "")
		r := cok(t, c, namespace.OpStat, "/f", "")
		if !r.CacheHit {
			t.Fatal("repeat read did not use the capability")
		}
		capHits, mdsOps := s.stats.CapHits.Load(), s.stats.MDSOps.Load()
		if capHits == 0 || mdsOps == 0 {
			t.Fatalf("stats: hits=%d ops=%d", capHits, mdsOps)
		}
	})
}

func TestWriteRevokesCapabilities(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		w := s.NewClient("w")
		r := s.NewClient("r")
		cok(t, w, namespace.OpCreate, "/shared", "")
		cok(t, r, namespace.OpStat, "/shared", "") // r holds a cap
		cok(t, w, namespace.OpDelete, "/shared", "")
		// r's cap was revoked: the next read goes to the MDS and misses.
		cerr(t, r, namespace.OpStat, "/shared", "", namespace.ErrNotFound)
		if s.stats.Revocations.Load() == 0 {
			t.Fatal("no revocations recorded")
		}
	})
}

func TestMvRevokesCapabilities(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		w := s.NewClient("w")
		r := s.NewClient("r")
		cok(t, w, namespace.OpMkdirs, "/d", "")
		cok(t, w, namespace.OpCreate, "/d/f", "")
		cok(t, r, namespace.OpStat, "/d/f", "")
		cok(t, w, namespace.OpMv, "/d/f", "/d/g")
		cerr(t, r, namespace.OpStat, "/d/f", "", namespace.ErrNotFound)
		cok(t, r, namespace.OpStat, "/d/g", "")
	})
}

func TestDeleteRevokesSubtreeCapabilities(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		w := s.NewClient("w")
		r := s.NewClient("r")
		cok(t, w, namespace.OpMkdirs, "/b", "")
		cok(t, w, namespace.OpCreate, "/b/a", "")
		cok(t, r, namespace.OpStat, "/b/a", "")
		before := s.stats.Revocations.Load()
		cok(t, w, namespace.OpDelete, "/b", "")
		// r's cap on /b/a sat below the deleted directory: it is revoked
		// and billed, and the next stat goes to the MDS.
		if got := s.stats.Revocations.Load() - before; got != 1 {
			t.Fatalf("revocations = %d, want 1 (r's cap on /b/a)", got)
		}
		cerr(t, r, namespace.OpStat, "/b/a", "", namespace.ErrNotFound)
	})
}

func TestMvRevokesSubtreeCapabilities(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		w := s.NewClient("w")
		r := s.NewClient("r")
		cok(t, w, namespace.OpMkdirs, "/b", "")
		cok(t, w, namespace.OpCreate, "/b/a", "")
		cok(t, r, namespace.OpStat, "/b/a", "")
		cok(t, w, namespace.OpMv, "/b", "/c")
		cerr(t, r, namespace.OpStat, "/b/a", "", namespace.ErrNotFound)
		cok(t, r, namespace.OpStat, "/c/a", "")
	})
}

func TestParentCapRevokedOnChildCreate(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		w := s.NewClient("w")
		r := s.NewClient("r")
		cok(t, w, namespace.OpMkdirs, "/p", "")
		cok(t, r, namespace.OpStat, "/p", "")
		before := s.stats.CapHits.Load()
		cok(t, w, namespace.OpCreate, "/p/child", "")
		// r's cap on /p is gone: next stat is not a cap hit.
		st := cok(t, r, namespace.OpStat, "/p", "")
		if st.CacheHit {
			t.Fatal("parent capability survived child create")
		}
		if after := s.stats.CapHits.Load(); after != before {
			t.Fatalf("unexpected cap hits during revalidation: %d -> %d", before, after)
		}
	})
}

func TestMDSCapacityBoundsThroughput(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.MDSServers = 1
		cfg.VCPUPerMDS = 1
		cfg.ReadCPUCost = 5 * time.Millisecond
		cfg.NetOneWay = 0
		cfg.JournalLatency = 0
		cfg.WriteCPUCost = 0
		s := New(clk, cfg)
		c := s.NewClient("c")
		cok(t, c, namespace.OpCreate, "/cap", "")
		start := clk.Now()
		wg := clock.NewGroup(clk)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				// Distinct clients so no capability sharing.
				cl := s.NewClient(fmt.Sprintf("c%d", i))
				cl.Do(namespace.OpStat, "/cap", "")
			})
		}
		wg.Wait()
		if d := clk.Since(start); d != 40*time.Millisecond {
			t.Fatalf("8 MDS reads of 5ms each on one server took %v, want exactly 40ms", d)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		wg := clock.NewGroup(clk)
		for w := 0; w < 8; w++ {
			wg.Go(func() {
				c := s.NewClient(fmt.Sprintf("c%d", w))
				dir := fmt.Sprintf("/w%d", w)
				if r, _ := c.Do(namespace.OpMkdirs, dir, ""); !r.OK() {
					t.Errorf("mkdirs: %s", r.Err)
					return
				}
				for i := 0; i < 50; i++ {
					p := fmt.Sprintf("%s/f%d", dir, i)
					if r, _ := c.Do(namespace.OpCreate, p, ""); !r.OK() {
						t.Errorf("create: %s", r.Err)
						return
					}
					if r, _ := c.Do(namespace.OpStat, p, ""); !r.OK() {
						t.Errorf("stat: %s", r.Err)
						return
					}
				}
			})
		}
		wg.Wait()
		c := s.NewClient("check")
		for w := 0; w < 8; w++ {
			ls := cok(t, c, namespace.OpLs, fmt.Sprintf("/w%d", w), "")
			if len(ls.Entries) != 50 {
				t.Fatalf("w%d entries = %d", w, len(ls.Entries))
			}
		}
	})
}

func TestPreloadResolvable(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := fastSys(clk)
		s.Preload([]string{"/pre", "/pre/sub"}, []string{"/pre/f1", "/pre/sub/f2"})
		c := s.NewClient("c")
		cok(t, c, namespace.OpStat, "/pre/f1", "")
		cok(t, c, namespace.OpStat, "/pre/sub/f2", "")
		ls := cok(t, c, namespace.OpLs, "/pre", "")
		if len(ls.Entries) != 2 {
			t.Fatalf("entries = %+v", ls.Entries)
		}
		st := cok(t, c, namespace.OpStat, "/pre/sub", "")
		if !st.Stat.IsDir {
			t.Fatal("preloaded dir not a dir")
		}
	})
}
