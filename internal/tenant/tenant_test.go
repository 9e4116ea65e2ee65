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
			if err := r.Admit("a"); err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			r.Done("a")
		}
		if err := r.Admit("a"); !errors.Is(err, namespace.ErrThrottled) {
			t.Fatalf("expected ErrThrottled on drained bucket, got %v", err)
		}

		// 500ms at 10 ops/s refills 5 tokens.
		clk.Sleep(500 * time.Millisecond)
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
		clk.Sleep(time.Hour)
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
	})
}

func TestInflightCap(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
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
	})
}

func TestUnregisteredTenantBypasses(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		r := NewRegistry(clk, nil)
		if err := r.Admit("nobody"); err != nil {
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
		if err := r.Admit("t"); err != nil {
			t.Fatal(err)
		}
		r.Done("t")
		err := r.Admit("t")
		resp := &namespace.Response{Err: namespace.ToWire(err)}
		if !errors.Is(resp.Error(), namespace.ErrThrottled) {
			t.Fatalf("throttle did not round-trip the wire: %v", resp.Error())
		}
	})
}
