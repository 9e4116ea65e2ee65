package tenant

import (
	"errors"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/simtest"
	"lambdafs/internal/telemetry"
)

func TestTokenBucketAdmission(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		reg := telemetry.NewRegistry()
		r := NewRegistry(clk, reg)
		r.Register(Class{Name: "a", OpsPerSec: 10, Burst: 5})

		// Burst drains: 5 admits, then throttled.
		for i := 0; i < 5; i++ {
			if err := anonAdmit(r, "a"); err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			r.Done("a")
		}
		if err := anonAdmit(r, "a"); !errors.Is(err, namespace.ErrThrottled) {
			t.Fatalf("expected ErrThrottled on drained bucket, got %v", err)
		}

		// 500ms at 10 ops/s refills 5 tokens.
		clk.Sleep(500 * time.Millisecond)
		for i := 0; i < 5; i++ {
			if err := anonAdmit(r, "a"); err != nil {
				t.Fatalf("post-refill admit %d: %v", i, err)
			}
			r.Done("a")
		}
		if err := anonAdmit(r, "a"); !errors.Is(err, namespace.ErrThrottled) {
			t.Fatalf("expected ErrThrottled after refill spent, got %v", err)
		}

		// Refill clamps at Burst: a long idle period still only buys 5.
		clk.Sleep(time.Hour)
		admitted := 0
		for anonAdmit(r, "a") == nil {
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
	})
}

func TestInflightCap(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		r := NewRegistry(clk, telemetry.NewRegistry())
		r.Register(Class{Name: "b", MaxInflight: 2})

		if err := anonAdmit(r, "b"); err != nil {
			t.Fatal(err)
		}
		if err := anonAdmit(r, "b"); err != nil {
			t.Fatal(err)
		}
		if err := anonAdmit(r, "b"); !errors.Is(err, namespace.ErrThrottled) {
			t.Fatalf("expected ErrThrottled at cap, got %v", err)
		}
		r.Done("b")
		if err := anonAdmit(r, "b"); err != nil {
			t.Fatalf("admit after release: %v", err)
		}
		if got := r.Lookup("b").Inflight(); got != 2 {
			t.Fatalf("inflight = %d, want 2", got)
		}
	})
}

func TestUnregisteredTenantBypasses(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		r := NewRegistry(clk, nil)
		if err := anonAdmit(r, "nobody"); err != nil {
			t.Fatalf("unregistered tenant must be admitted, got %v", err)
		}
		r.Done("nobody") // must not panic
	})
}

// TestEngineAdmissionContract simulates the engine's usage pattern:
// tagged requests hit the registry through the Admission interface
// shape (Admit/Done by name) and throttles convert to the wire sentinel.
func TestEngineAdmissionContract(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		r := NewRegistry(clk, telemetry.NewRegistry())
		r.Register(Class{Name: "t", OpsPerSec: 1, Burst: 1})
		if err := anonAdmit(r, "t"); err != nil {
			t.Fatal(err)
		}
		r.Done("t")
		err := anonAdmit(r, "t")
		resp := &namespace.Response{Err: namespace.ToWire(err)}
		if !errors.Is(resp.Error(), namespace.ErrThrottled) {
			t.Fatalf("throttle did not round-trip the wire: %v", resp.Error())
		}
	})
}

// anonAdmit admits a request that carries no ClientID: always counted.
func anonAdmit(r *Registry, name string) error {
	_, err := r.Admit(name, namespace.RequestKey{})
	return err
}

// TestAdmitOncePerRequest: the copies of one (ClientID, Seq) — a raced
// request's two, or a resubmission — are decided once: an admitted one
// takes one token and one in-flight slot between them and is admitted
// once, a throttled one is throttled once and its later copies rejected
// uncounted. An older Seq arriving late passes free; another client's same
// Seq, or the next Seq, is decided afresh.
func TestAdmitOncePerRequest(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		r := NewRegistry(clk, telemetry.NewRegistry())
		r.Register(Class{Name: "t", OpsPerSec: 1, Burst: 3, MaxInflight: 2})
		ten := r.Lookup("t")
		admit := func(client string, seq uint64, wantCounted bool, wantErr error) {
			t.Helper()
			counted, err := r.Admit("t", namespace.RequestKey{ClientID: client, Seq: seq})
			if err != wantErr || counted != wantCounted {
				t.Fatalf("%s/%d: counted %v, %v; want %v, %v", client, seq, counted, err, wantCounted, wantErr)
			}
		}
		admit("c1", 1, true, nil)
		admit("c1", 1, false, nil) // the raced copy, the first still in flight
		if ten.Inflight() != 1 || ten.Admitted() != 1 {
			t.Fatalf("after two copies of c1/1: inflight %d, admitted %v; want 1 and 1", ten.Inflight(), ten.Admitted())
		}
		r.Done("t")
		admit("c1", 1, false, nil) // a resubmission after the reply
		admit("c2", 1, true, nil)  // another client's Seq 1
		admit("c1", 2, true, nil)
		admit("c1", 1, false, nil)                    // a late copy of an older Seq
		admit("c3", 1, false, namespace.ErrThrottled) // at the in-flight cap
		r.Done("t")
		r.Done("t")
		admit("c3", 1, false, namespace.ErrThrottled) // the raced copy: the same verdict, uncounted
		admit("c3", 2, false, namespace.ErrThrottled) // a slot is free, but the bucket is drained
		clk.Sleep(time.Second)
		admit("c3", 2, false, namespace.ErrThrottled) // decided already
		admit("c3", 3, true, nil)
		if ten.Admitted() != 4 || ten.Throttled() != 2 {
			t.Fatalf("admitted %v, throttled %v; want 4 and 2", ten.Admitted(), ten.Throttled())
		}
	})
}
