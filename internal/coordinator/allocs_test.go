//go:build !race

package coordinator

import (
	"testing"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
)

// An INV/ACK round's host cost is fixed by its target count, not by the
// batch. Per round: the target list with its ACK flags, the round's own
// copy of the batch (the caller may reuse its slice), the slot and ACK
// mailboxes, the ACK mailbox's one receive record and the first growth of
// its two record lists (a fresh mailbox has no spare), the delivery closure
// and one spawn closure per target. The membership dedup set stays on the
// stack, and a delivery goroutine reuses an exited one's. (Not under -race:
// the detector allocates.)
func TestInvalidateRoundAllocs(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		z := NewZK(clk, DefaultConfig())
		delivered := 0
		for _, id := range []string{"nn-w", "nn-a", "nn-b"} {
			z.Register(0, id, func(Invalidation) { delivered++ })
		}
		invs := []Invalidation{{Path: "/a/b", Writer: "nn-w"}, {Path: "/a", Writer: "nn-w"}}
		round := func() {
			if err := z.InvalidateBatchTraced([]int{0}, invs, nil); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if delivered != 4 {
			t.Fatalf("a round delivered %d INVs, want 4 (two invs to each of two peers)", delivered)
		}
		if got := testing.AllocsPerRun(100, round); got != 11 {
			t.Errorf("INV/ACK round to two peers: %v allocs, want 11", got)
		}
	})
}
