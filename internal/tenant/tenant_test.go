package tenant

import (
	"errors"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/telemetry"
)

func TestTokenBucketAdmission(t *testing.T) {
	clk := clock.NewManual()
	reg := telemetry.NewRegistry()
	r := NewRegistry(clk, reg)
	r.Register(Class{Name: "a", OpsPerSec: 10, Burst: 5})

	// Burst drains: 5 admits, then throttled.
	for i := 0; i < 5; i++ {
		if err := r.Admit("a"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		r.Done("a")
	}
	if err := r.Admit("a"); !errors.Is(err, namespace.ErrThrottled) {
		t.Fatalf("expected ErrThrottled on drained bucket, got %v", err)
	}

	// 500ms at 10 ops/s refills 5 tokens.
	clk.Advance(500 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := r.Admit("a"); err != nil {
			t.Fatalf("post-refill admit %d: %v", i, err)
		}
		r.Done("a")
	}
	if err := r.Admit("a"); !errors.Is(err, namespace.ErrThrottled) {
		t.Fatalf("expected ErrThrottled after refill spent, got %v", err)
	}

	// Refill clamps at Burst: a long idle period still only buys 5.
	clk.Advance(time.Hour)
	admitted := 0
	for r.Admit("a") == nil {
		r.Done("a")
		admitted++
	}
	if admitted != 5 {
		t.Fatalf("burst clamp: admitted %d after long idle, want 5", admitted)
	}

	ten := r.Lookup("a")
	if ten.Admitted() != 15 || ten.Throttled() != 3 {
		t.Fatalf("counters: admitted %v throttled %v, want 15 and 3",
			ten.Admitted(), ten.Throttled())
	}
}

func TestInflightCap(t *testing.T) {
	clk := clock.NewManual()
	r := NewRegistry(clk, telemetry.NewRegistry())
	r.Register(Class{Name: "b", MaxInflight: 2})

	if err := r.Admit("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("b"); !errors.Is(err, namespace.ErrThrottled) {
		t.Fatalf("expected ErrThrottled at cap, got %v", err)
	}
	r.Done("b")
	if err := r.Admit("b"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := r.Lookup("b").Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
}

func TestUnregisteredTenantBypasses(t *testing.T) {
	r := NewRegistry(clock.NewManual(), nil)
	if err := r.Admit("nobody"); err != nil {
		t.Fatalf("unregistered tenant must be admitted, got %v", err)
	}
	r.Done("nobody") // must not panic
}

// TestFairQueueWeightedDrain checks the WFQ invariants: per-flow FIFO
// order, and drain rates proportional to weight under contention.
func TestFairQueueWeightedDrain(t *testing.T) {
	q := NewFairQueue[string]()
	// heavy (weight 2) and light (weight 1), 12 items each.
	for i := 0; i < 12; i++ {
		q.Push("heavy", 2, "h")
		q.Push("light", 1, "l")
	}
	if q.Len() != 24 {
		t.Fatalf("Len = %d, want 24", q.Len())
	}
	// In the first 9 pops, heavy should get ~2/3 of the service.
	heavy := 0
	for i := 0; i < 9; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue empty early")
		}
		if v == "h" {
			heavy++
		}
	}
	if heavy < 5 || heavy > 7 {
		t.Fatalf("heavy got %d of the first 9 slots, want ~6", heavy)
	}
	// Drain fully; total counts must be exact.
	for q.Len() > 0 {
		if _, ok := q.Pop(); !ok {
			t.Fatal("Pop reported empty with items queued")
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned an item")
	}
}

func TestFairQueueFIFOWithinFlow(t *testing.T) {
	q := NewFairQueue[int]()
	for i := 0; i < 50; i++ {
		q.Push("only", 1, i)
	}
	for i := 0; i < 50; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
}

// TestFairQueueIdleShareRedistributes: once a flow empties, the other
// flow takes every slot (work conservation).
func TestFairQueueIdleShareRedistributes(t *testing.T) {
	q := NewFairQueue[string]()
	q.Push("a", 1, "a0")
	for i := 0; i < 5; i++ {
		q.Push("b", 1, "b")
	}
	seen := map[string]int{}
	for q.Len() > 0 {
		v, _ := q.Pop()
		seen[v[:1]]++
	}
	if seen["a"] != 1 || seen["b"] != 5 {
		t.Fatalf("drained %v, want a:1 b:5", seen)
	}
}

func TestPlacementHashAndRebalance(t *testing.T) {
	p := NewPlacement(4)
	// Default mapping is the stable tenant-name hash: repeatable, in range.
	for _, name := range []string{"spotify", "crawler", "batch-ingest"} {
		s1, s2 := p.ShardFor(name), p.ShardFor(name)
		if s1 != s2 || s1 < 0 || s1 >= 4 {
			t.Fatalf("hash placement for %s unstable or out of range: %d, %d", name, s1, s2)
		}
	}
	// Rebalance by load: the two heaviest tenants must land on distinct
	// shards, and the assignment must be deterministic.
	load := map[string]float64{"spotify": 100, "crawler": 90, "batch-ingest": 10, "interactive": 5}
	p.RebalanceProportional(load)
	if p.ClientShard("spotify", 0) == p.ClientShard("crawler", 0) {
		t.Fatalf("heaviest tenants share shard %d after rebalance", p.ClientShard("spotify", 0))
	}
	q := NewPlacement(4)
	q.RebalanceProportional(load)
	for name := range load {
		if p.ClientShard(name, 0) != q.ClientShard(name, 0) {
			t.Fatalf("rebalance nondeterministic for %s: %d vs %d",
				name, p.ClientShard(name, 0), q.ClientShard(name, 0))
		}
	}
}

func TestPlacementProportionalSpread(t *testing.T) {
	p := NewPlacement(10)
	load := map[string]float64{"big": 80, "mid": 15, "small": 5}
	p.RebalanceProportional(load)

	// A tenant with 80% of the load must spread its clients over most of
	// the shards; the small tenant stays on one.
	bigShards := map[int]bool{}
	for c := 0; c < 100; c++ {
		s := p.ClientShard("big", c)
		if s < 0 || s >= 10 {
			t.Fatalf("client shard %d out of range", s)
		}
		bigShards[s] = true
	}
	if len(bigShards) < 6 {
		t.Fatalf("80%%-load tenant only spread over %d/10 shards", len(bigShards))
	}
	smallShards := map[int]bool{}
	for c := 0; c < 100; c++ {
		smallShards[p.ClientShard("small", c)] = true
	}
	if len(smallShards) != 1 {
		t.Fatalf("5%%-load tenant spread over %d shards, want 1", len(smallShards))
	}
	// Deterministic: a fresh placement with the same load agrees.
	q := NewPlacement(10)
	q.RebalanceProportional(load)
	for name := range load {
		for c := 0; c < 20; c++ {
			if p.ClientShard(name, c) != q.ClientShard(name, c) {
				t.Fatalf("proportional placement nondeterministic for %s/%d", name, c)
			}
		}
	}
}

// TestEngineAdmissionContract simulates the engine's usage pattern:
// tagged requests hit the registry through the Admission interface
// shape (Admit/Done by name) and throttles convert to the wire sentinel.
func TestEngineAdmissionContract(t *testing.T) {
	clk := clock.NewManual()
	r := NewRegistry(clk, telemetry.NewRegistry())
	r.Register(Class{Name: "t", OpsPerSec: 1, Burst: 1})
	if err := r.Admit("t"); err != nil {
		t.Fatal(err)
	}
	r.Done("t")
	err := r.Admit("t")
	resp := &namespace.Response{Err: namespace.ToWire(err)}
	if !errors.Is(resp.Error(), namespace.ErrThrottled) {
		t.Fatalf("throttle did not round-trip the wire: %v", resp.Error())
	}
}
