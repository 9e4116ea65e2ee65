package coordinator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/ndb"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

func newTestZK(clk *clock.Sim) *ZK {
	cfg := DefaultConfig()
	cfg.HopLatency = 0
	return NewZK(clk, cfg)
}

func TestRegisterMembers(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		s1 := z.Register(0, "nn-0a", func(Invalidation) {})
		z.Register(0, "nn-0b", func(Invalidation) {})
		z.Register(1, "nn-1a", func(Invalidation) {})
		got := z.Members(0)
		sort.Strings(got)
		if len(got) != 2 || got[0] != "nn-0a" || got[1] != "nn-0b" {
			t.Fatalf("members(0) = %v", got)
		}
		if z.MemberCount() != 3 {
			t.Fatalf("count = %d", z.MemberCount())
		}
		s1.Close()
		if len(z.Members(0)) != 1 {
			t.Fatal("close did not deregister")
		}
		if s1.ID() != "nn-0a" {
			t.Fatal("ID lost")
		}
		s1.Close() // idempotent
	})
}

func TestInvalidateReachesAllMembersExceptWriter(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		var hits sync.Map
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("nn-%d", i)
			z.Register(2, id, func(id string) Handler {
				return func(inv Invalidation) {
					hits.Store(id, inv.Path)
				}
			}(id))
		}
		if err := z.InvalidateBatch([]int{2}, []Invalidation{{Path: "/a/b", Writer: "nn-0"}}); err != nil {
			t.Fatal(err)
		}
		count := 0
		hits.Range(func(k, v any) bool {
			if k == "nn-0" {
				t.Fatal("writer invalidated itself through the protocol")
			}
			if v != "/a/b" {
				t.Fatalf("wrong path delivered: %v", v)
			}
			count++
			return true
		})
		if count != 3 {
			t.Fatalf("%d members received INV, want 3", count)
		}
	})
}

func TestInvalidateMultipleDeployments(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		var n atomic.Int32
		for dep := 0; dep < 3; dep++ {
			for i := 0; i < 2; i++ {
				z.Register(dep, fmt.Sprintf("nn-%d-%d", dep, i), func(Invalidation) { n.Add(1) })
			}
		}
		if err := z.InvalidateBatch([]int{0, 2}, []Invalidation{{Path: "/x"}}); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 4 {
			t.Fatalf("%d handlers ran, want 4 (deployments 0 and 2)", n.Load())
		}
	})
}

// TestInvalidateFanoutBounded: a batch round to one member more than
// invFanout keeps at most invFanout deliveries in flight; the last member
// waits for a free slot, so the round takes two handler times.
func TestInvalidateFanoutBounded(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		const handle = time.Millisecond
		var inFlight, peak, handled int
		for i := 0; i < invFanout+1; i++ {
			z.Register(0, fmt.Sprintf("nn-%03d", i), func(Invalidation) {
				inFlight++
				peak = max(peak, inFlight)
				clk.Sleep(handle)
				inFlight--
				handled++
			})
		}
		start := clk.Now()
		if err := z.InvalidateBatch([]int{0}, []Invalidation{{Path: "/f"}}); err != nil {
			t.Fatal(err)
		}
		if handled != invFanout+1 || peak != invFanout {
			t.Fatalf("handled %d, peak in flight %d; want %d and %d", handled, peak, invFanout+1, invFanout)
		}
		if took := clk.Since(start); took != 2*handle {
			t.Fatalf("round took %v, want %v", took, 2*handle)
		}
	})
}

func TestInvalidateEmptyDeployment(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		if err := z.InvalidateBatch([]int{7}, []Invalidation{{Path: "/x"}}); err != nil {
			t.Fatalf("empty deployment INV errored: %v", err)
		}
	})
}

func TestCrashedMemberExcused(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.HopLatency = 5 * time.Millisecond // force a delivery window
		var crashed atomic.Bool
		cfg.OnCrash = func(id string) { crashed.Store(true) }
		z := NewZK(clk, cfg)

		handled := atomic.Bool{}
		s := z.Register(0, "nn-dying", func(Invalidation) { handled.Store(true) })
		var err error
		round := clock.NewGroup(clk)
		round.Go(func() { err = z.InvalidateBatch([]int{0}, []Invalidation{{Path: "/y"}}) })
		clk.Sleep(2 * time.Millisecond) // INV in flight: the delivery hop lands at 10ms
		s.Crash()
		if round.Wait(); err != nil {
			t.Fatalf("INV not excused for crashed member: %v", err)
		}
		if at := clk.Since(clock.Epoch); at != 10*time.Millisecond {
			t.Fatalf("round ended at %v, want 10ms: the delivery hop, and no ACK hop for a member that is gone", at)
		}
		if handled.Load() {
			t.Fatal("crashed member handled INV after termination")
		}
		if !crashed.Load() {
			t.Fatal("OnCrash callback not fired")
		}
	})
}

func TestAckTimeout(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.HopLatency = 0
		cfg.AckTimeout = 20 * time.Millisecond
		z := NewZK(clk, cfg)
		release := clock.NewEvent(clk)
		z.Register(0, "nn-stuck", func(Invalidation) { release.Wait() })
		err := z.InvalidateBatch([]int{0}, []Invalidation{{Path: "/z"}})
		if !errors.Is(err, ErrAckTimeout) {
			t.Fatalf("err = %v, want ErrAckTimeout", err)
		}
		release.Set()
	})
}

// TestAckTimeoutVirtualTimestamp pins the ack deadline to simulated time:
// on a Sim clock, a round against a member stuck for a (virtual) hour must
// give up exactly AckTimeout later on the virtual clock, not after any
// host-dependent wall delay — wherever the hedge instant falls. A hedge due
// before the deadline re-sends to the straggler once; one due at the
// deadline loses to it.
func TestAckTimeoutVirtualTimestamp(t *testing.T) {
	const ackTimeout = 250 * time.Millisecond
	for _, tc := range []struct {
		name       string
		hedgeAfter time.Duration
		batch      bool
		deliveries int64 // to the stuck member
	}{
		{"single inv", DefaultConfig().HedgeAfter, false, 1}, // a batch of one, through InvalidateBatch
		{"batch, hedge before the deadline", 100 * time.Millisecond, true, 2},
		{"batch, hedge at the deadline", ackTimeout, true, 1},
		{"batch, no hedging", 0, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simtest.New(t)
			cfg := DefaultConfig()
			cfg.HopLatency = 0
			cfg.AckTimeout = ackTimeout
			cfg.HedgeAfter = tc.hedgeAfter
			z := NewZK(clk, cfg)
			var stuck, healthy atomic.Int64
			z.Register(0, "nn-stuck", func(Invalidation) { stuck.Add(1); clk.Sleep(time.Hour) })
			z.Register(0, "nn-ok", func(Invalidation) { healthy.Add(1) })
			var err error
			var elapsed time.Duration
			clock.Run(clk, func() {
				start := clk.Now()
				if tc.batch {
					err = z.InvalidateBatchTraced([]int{0}, []Invalidation{{Path: "/z"}}, nil)
				} else {
					err = z.InvalidateBatch([]int{0}, []Invalidation{{Path: "/z"}})
				}
				elapsed = clk.Since(start)
			})
			if !errors.Is(err, ErrAckTimeout) || !strings.Contains(err.Error(), "nn-stuck") || strings.Contains(err.Error(), "nn-ok") {
				t.Fatalf("err = %v, want ErrAckTimeout naming nn-stuck alone", err)
			}
			if elapsed != ackTimeout {
				t.Fatalf("timed out after %v virtual, want exactly %v", elapsed, ackTimeout)
			}
			if got := stuck.Load(); got != tc.deliveries {
				t.Errorf("%d deliveries to the stuck member, want %d", got, tc.deliveries)
			}
			if got := healthy.Load(); got != 1 {
				t.Errorf("%d deliveries to the member that ACKed, want 1: it is never hedged", got)
			}
		})
	}
}

func TestLeaderElectionSuccession(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		s1 := z.Register(0, "a", func(Invalidation) {})
		z.Register(0, "b", func(Invalidation) {})
		if !z.TryLead("nn", "a") {
			t.Fatal("first candidate should lead")
		}
		if z.TryLead("nn", "b") {
			t.Fatal("second candidate should not lead")
		}
		if z.Leader("nn") != "a" {
			t.Fatalf("leader = %q", z.Leader("nn"))
		}
		s1.Crash()
		if !z.TryLead("nn", "b") {
			t.Fatal("successor should lead after crash")
		}
		if z.Leader("nn") != "b" {
			t.Fatalf("leader after crash = %q", z.Leader("nn"))
		}
		if z.Leader("other") != "" {
			t.Fatal("unknown group has a leader")
		}
	})
}

func TestTryLeadIdempotent(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		z.Register(0, "a", func(Invalidation) {})
		if !z.TryLead("g", "a") || !z.TryLead("g", "a") {
			t.Fatal("repeated TryLead by the leader should stay true")
		}
	})
}

func TestNDBCoordPersistsMembership(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		dbCfg := ndb.DefaultConfig()
		dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 0, 0, 0
		db := ndb.New(clk, dbCfg)
		cfg := DefaultConfig()
		cfg.HopLatency = 0
		c := NewNDB(clk, cfg, db)

		// persisted reads deployment 3's membership rows back from the store.
		persisted := func() map[string][]byte {
			t.Helper()
			tx := db.Begin("test")
			defer tx.Abort()
			rows, err := tx.KVScan(store.TableCoord, "member/3/")
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		s := c.Register(3, "nn-x", func(Invalidation) {})
		if rows := persisted(); len(rows) != 1 || rows[memberKey(3, "nn-x")] == nil {
			t.Fatalf("persisted = %v", rows)
		}
		// INV works through the embedded dispatcher.
		var got atomic.Bool
		c.Register(3, "nn-y", func(Invalidation) { got.Store(true) })
		if err := c.InvalidateBatch([]int{3}, []Invalidation{{Path: "/p", Writer: "nn-x"}}); err != nil {
			t.Fatal(err)
		}
		if !got.Load() {
			t.Fatal("INV not delivered via NDB coordinator")
		}
		s.Close()
		if rows := persisted(); rows[memberKey(3, "nn-x")] != nil {
			t.Fatal("membership row survived Close")
		}
	})
}

func TestConcurrentRegisterInvalidate(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		wg := clock.NewGroup(clk)
		for i := 0; i < 8; i++ {
			wg.Go(func() {
				s := z.Register(i%2, fmt.Sprintf("nn-%d", i), func(Invalidation) {})
				for j := 0; j < 20; j++ {
					if err := z.InvalidateBatch([]int{0, 1}, []Invalidation{{Path: "/c", Writer: s.ID()}}); err != nil {
						t.Errorf("invalidate: %v", err)
					}
				}
				s.Close()
			})
		}
		wg.Wait()
		if z.MemberCount() != 0 {
			t.Fatalf("members leaked: %d", z.MemberCount())
		}
	})
}

// TestExpireSessionEndsCrashed covers the chaos harness's lease-expiry
// primitive: the victim's session ends as a crash (OnCrash fires, crashed-
// NameNode cleanup runs), its membership disappears, and leadership passes
// to the next candidate.
func TestExpireSessionEndsCrashed(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.HopLatency = 0
		var crashedID atomic.Value
		cfg.OnCrash = func(id string) { crashedID.Store(id) }
		z := NewZK(clk, cfg)
		z.Register(0, "a", func(Invalidation) {})
		z.Register(0, "b", func(Invalidation) {})
		z.TryLead("g", "a")
		z.TryLead("g", "b")

		if !z.ExpireSession("a") {
			t.Fatal("ExpireSession(a) found no session")
		}
		if got, _ := crashedID.Load().(string); got != "a" {
			t.Fatalf("OnCrash got %q, want a", got)
		}
		for _, id := range z.Members(0) {
			if id == "a" {
				t.Fatal("expired session still a member")
			}
		}
		if z.Leader("g") != "b" {
			t.Fatalf("leader after expiry = %q, want b", z.Leader("g"))
		}
		if z.ExpireSession("a") {
			t.Fatal("double expiry reported a session")
		}
		if z.ExpireSession("ghost") {
			t.Fatal("expiry of unknown id reported a session")
		}
	})
}

// TestDeposeRotatesLeadership covers the leader-flap primitive: the head
// candidate is rotated to the back of the queue without losing its
// session, so repeated flaps cycle leadership through all candidates.
func TestDeposeRotatesLeadership(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := newTestZK(clk)
		for _, id := range []string{"a", "b", "c"} {
			z.Register(0, id, func(Invalidation) {})
			z.TryLead("g", id)
		}
		if z.Leader("g") != "a" {
			t.Fatalf("initial leader = %q", z.Leader("g"))
		}
		if got := z.Depose("g"); got != "b" {
			t.Fatalf("Depose -> %q, want b", got)
		}
		if got := z.Depose("g"); got != "c" {
			t.Fatalf("Depose -> %q, want c", got)
		}
		// The deposed leaders re-queued: a full cycle returns to a.
		if got := z.Depose("g"); got != "a" {
			t.Fatalf("Depose -> %q, want a (full rotation)", got)
		}
		// No sessions were lost along the way.
		if got := len(z.Members(0)); got != 3 {
			t.Fatalf("members = %d after flaps, want 3", got)
		}
		// A group with fewer than two candidates cannot flap.
		z.Register(0, "solo", func(Invalidation) {})
		z.TryLead("lone", "solo")
		if got := z.Depose("lone"); got != "" {
			t.Fatalf("Depose on single-candidate group -> %q, want \"\"", got)
		}
		if got := z.Depose("none"); got != "" {
			t.Fatalf("Depose on unknown group -> %q, want \"\"", got)
		}
	})
}
