package ndb

import (
	"errors"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/store"
)

// TestLockGrantAndTimeoutOnOneInstant: when the holder releases a row on
// the very instant a waiter's timeout expires, the waiter gets exactly one
// answer — the lock or ErrLockTimeout, never a lock it was told it did not
// get — at exactly the timeout, and no lock or queue entry outlives the
// release.
func TestLockGrantAndTimeoutOnOneInstant(t *testing.T) {
	sim := clock.NewSim()
	defer sim.Close()
	const timeout = 250 * time.Millisecond
	granted, timedOut := 0, 0
	clock.Run(sim, func() {
		for i := 0; i < 200; i++ {
			lm := newLockManager(sim, timeout)
			if _, err := lm.Acquire("holder", "row", true); err != nil {
				t.Fatal(err)
			}
			g := clock.NewGroup(sim)
			g.Go(func() {
				sim.Sleep(timeout)
				lm.ReleaseAll("holder")
			})
			start := sim.Now()
			waited, err := lm.Acquire("waiter", "row", true)
			if at := sim.Since(start); at != timeout || waited != timeout {
				t.Fatalf("round %d: Acquire returned after %v reporting a %v wait, want %v", i, at, waited, timeout)
			}
			g.Wait()
			held := 0
			switch {
			case err == nil:
				granted++
				held = 1
			case errors.Is(err, store.ErrLockTimeout):
				timedOut++
			default:
				t.Fatalf("round %d: %v", i, err)
			}
			if got := lm.heldLocks(); got != held {
				t.Fatalf("round %d: Acquire returned %v with %d locks held", i, err, got)
			}
			lm.ReleaseAll("waiter")
			lm.mu.Lock()
			rows := len(lm.rows)
			lm.mu.Unlock()
			if lm.heldLocks() != 0 || rows != 0 {
				t.Fatalf("round %d: %d locks and %d rows left after every release", i, lm.heldLocks(), rows)
			}
		}
	})
	t.Logf("grant won %d ties, timeout won %d", granted, timedOut)
}
