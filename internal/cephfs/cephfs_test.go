package cephfs

import (
	"errors"
	"fmt"
	"testing"

	"lambdafs/internal/chaos"
	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
)

func newSys(clk *clock.Sim) *System {
	return New(clk, DefaultConfig())
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := newSys(clk)
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
		s := New(clk, Config{MDSServers: 1})
		c := s.NewClient("c")
		cok(t, c, namespace.OpCreate, "/cap", "")
		start := clk.Now()
		wg := clock.NewGroup(clk)
		// Three reads per vCPU of the one server: each vCPU serves its three
		// back to back, between one network leg out and one back.
		for i := 0; i < 3*vcpuPerMDS; i++ {
			wg.Go(func() {
				// Distinct clients so no capability sharing.
				cl := s.NewClient(fmt.Sprintf("c%d", i))
				cl.Do(namespace.OpStat, "/cap", "")
			})
		}
		wg.Wait()
		if d, want := clk.Since(start), 2*netOneWay+3*readCPUCost; d != want {
			t.Fatalf("%d MDS reads of %v each on one %d-vCPU server took %v, want exactly %v",
				3*vcpuPerMDS, readCPUCost, vcpuPerMDS, d, want)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		s := newSys(clk)
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
		s := newSys(clk)
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

// TestErrorClassesMatchOracle holds every write's answer to chaos.Oracle's
// error class, from one tree: a directory /d holding a file /d/x, and a
// file /f.
func TestErrorClassesMatchOracle(t *testing.T) {
	cases := []struct {
		op         namespace.OpType
		path, dest string
	}{
		{namespace.OpCreate, "/d/y", ""},
		{namespace.OpCreate, "/d/x", ""},
		{namespace.OpCreate, "/g/a", ""},
		{namespace.OpCreate, "/f/a", ""},
		{namespace.OpCreate, "/f/a/b", ""},
		{namespace.OpMkdirs, "/d/e/f", ""},
		{namespace.OpMkdirs, "/f", ""},
		{namespace.OpMkdirs, "/f/a", ""},
		{namespace.OpMkdirs, "/f/a/b", ""},
		{namespace.OpDelete, "/", ""},
		{namespace.OpDelete, "/nope", ""},
		{namespace.OpDelete, "/f/a", ""},
		{namespace.OpDelete, "/d", ""},
		{namespace.OpMv, "/d/x", "/d/z"},
		{namespace.OpMv, "/", "/z"},
		{namespace.OpMv, "/d/x", "/"},
		{namespace.OpMv, "/d", "/d/sub"},
		{namespace.OpMv, "/nope", "/d/z"},
		{namespace.OpMv, "/nope", "/f/y"},
		{namespace.OpMv, "/d/x", "/f"},
		{namespace.OpMv, "/d/x", "/g/y"},
		{namespace.OpMv, "/d/x", "/f/y"},
		{namespace.OpMv, "/d/x", "/f/a/y"},
	}
	for _, tc := range cases {
		simtest.Run(t, func(clk *clock.Sim) {
			s := newSys(clk)
			c := s.NewClient("c")
			o := chaos.NewOracle()
			for _, p := range []string{"/d", "/d/x", "/f"} {
				op := namespace.OpCreate
				if p == "/d" {
					op = namespace.OpMkdirs
				}
				cok(t, c, op, p, "")
				if err := o.Apply(op, p, ""); err != nil {
					t.Fatal(err)
				}
			}
			want := o.Apply(tc.op, tc.path, tc.dest)
			r, err := c.Do(tc.op, tc.path, tc.dest)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Error(); !errors.Is(got, want) {
				t.Errorf("%v %s %s: err=%v, oracle %v", tc.op, tc.path, tc.dest, got, want)
			}
		})
	}
}
