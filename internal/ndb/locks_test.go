package ndb

import (
	"errors"
	"hash/fnv"
	"strconv"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/simtest"
	"lambdafs/internal/store"
)

// TestRowKeyHashesItsStringForm: row keys are comparable values, but a row
// lives on the shard FNV-1a of its string form names — the placement every
// checkpoint on durable media and every committed virtual-time number was
// made with — and the hash is computed without building that string.
func TestRowKeyHashesItsStringForm(t *testing.T) {
	clk := simtest.New(t)
	for _, tc := range []struct {
		key  rowKey
		form string
	}{
		{inodeKey(1), "i/1"},
		{inodeKey(65599), "i/65599"},
		{inodeKey(18446744073709551615), "i/18446744073709551615"},
		{childKey(1, "a"), "c/1/a"},
		{childKey(4096, "f0042"), "c/4096/f0042"},
		{childKey(1234567890123, "übung-日本語.txt"), "c/1234567890123/übung-日本語.txt"},
		{childKey(7, ""), "c/7/"},
		{kvKey(store.TableSubtreeOps, "42"), "k/subtree_ops/42"},
		{kvKey(testTable, "dn-é"), "k/test_kv/dn-é"},
		{kvKey(testTable, ""), "k/test_kv/"}, // KVScan's empty prefix
		{plainKey("/a/b/c"), "/a/b/c"},
		{plainKey("subtree/77"), "subtree/77"},
	} {
		if got := tc.key.String(); got != tc.form {
			t.Errorf("%#v renders %q, want %q", tc.key, got, tc.form)
		}
		h := fnv.New32a()
		h.Write([]byte(tc.form))
		if got, want := tc.key.hash(), h.Sum32(); got != want {
			t.Errorf("hash of %q = %#x, want FNV-1a %#x", tc.form, got, want)
		}
		for _, shards := range []int{1, 4, 7} {
			cfg := DefaultConfig()
			cfg.DataNodes = shards
			if got, want := New(clk, cfg).shardFor(tc.key), int(h.Sum32()%uint32(shards)); got != want {
				t.Errorf("%q of %d shards on %d, want %d", tc.form, shards, got, want)
			}
		}
	}
	if testing.AllocsPerRun(100, func() { _ = childKey(1234567890123, "f0042").hash() }) != 0 {
		t.Error("hashing a key allocates")
	}
	// Past 32 bytes, a concatenation would not fit the compiler's stack buffer.
	table, key := store.TableSubtreeOps, strconv.Itoa(1234567890123)+"/"+strconv.Itoa(1234567890123)
	if testing.AllocsPerRun(100, func() { _ = kvKey(table, key).hash() }) != 0 {
		t.Error("hashing a KV row's key allocates")
	}
}

// TestLockTable drives the table itself through what the transaction-level
// tests require of it: the sole shared holder upgrades in place and any
// other waits for the rest to leave, a release promotes shared waiters past
// a queued exclusive one, a timed-out waiter leaves nothing behind, an
// owner's forced release frees its rows and wakes their waiters — and an
// emptied rowLock is what the next new row gets.
func TestLockTable(t *testing.T) {
	sim := simtest.New(t)
	const timeout = 250 * time.Millisecond
	row, other := inodeKey(7), childKey(7, "f")
	mustGrant := func(lm *lockManager, tx *lockTx, key rowKey, exclusive bool, wantWait time.Duration) {
		t.Helper()
		if wait, err := lm.Acquire(tx, key, exclusive); err != nil || wait != wantWait {
			t.Fatalf("Acquire(%s, exclusive=%v) = %v, %v; want a grant after %v", key, exclusive, wait, err, wantWait)
		}
	}
	clock.Run(sim, func() {
		lm := newLockManager(sim, timeout)
		a, b, c, d := &lockTx{owner: "nn-a"}, &lockTx{owner: "nn-b"}, &lockTx{owner: "nn-c"}, &lockTx{owner: "nn-d"}

		// Upgrade: alone at once; with company, when the company leaves.
		mustGrant(lm, a, row, false, 0)
		mustGrant(lm, a, row, true, 0)
		mustGrant(lm, a, row, false, 0) // already exclusive: nothing to do
		if len(a.held) != 1 || lm.heldLocks() != 1 {
			t.Fatalf("one row held three ways counts %d/%d times", len(a.held), lm.heldLocks())
		}
		lm.ReleaseAll(a)
		mustGrant(lm, a, row, false, 0)
		mustGrant(lm, b, row, false, 0)
		g := clock.NewGroup(sim)
		g.Go(func() { mustGrant(lm, a, row, true, time.Millisecond) })
		sim.Sleep(time.Millisecond)
		lm.ReleaseAll(b)
		g.Wait()
		if rl := lm.rows[row]; rl.exclusive != a || len(rl.shared) != 0 {
			t.Fatalf("after the upgrade the row is held %+v", rl)
		}

		// a holds row exclusive; b (shared), c (exclusive), d (shared) queue
		// in that order. a's release grants b and, past c, d; c follows them.
		var order []string
		for i, w := range []struct {
			tx        *lockTx
			exclusive bool
			wait      time.Duration
		}{{b, false, 3 * time.Millisecond}, {c, true, 3 * time.Millisecond}, {d, false, time.Millisecond}} {
			g.Go(func() {
				sim.Sleep(time.Duration(i) * time.Millisecond)
				mustGrant(lm, w.tx, row, w.exclusive, w.wait)
				order = append(order, w.tx.owner)
				if !w.exclusive {
					sim.Sleep(time.Millisecond)
					lm.ReleaseAll(w.tx)
				}
			})
		}
		sim.Sleep(3 * time.Millisecond)
		lm.ReleaseAll(a)
		g.Wait()
		if got := order; len(got) != 3 || got[0] != "nn-b" || got[1] != "nn-d" || got[2] != "nn-c" {
			t.Fatalf("grant order %v, want b and d (shared, past the exclusive waiter) then c", got)
		}

		// c holds row exclusive. A waiter that times out leaves no trace.
		if wait, err := lm.Acquire(a, row, false); !errors.Is(err, store.ErrLockTimeout) || wait != timeout {
			t.Fatalf("Acquire behind an exclusive holder = %v, %v; want the timeout", wait, err)
		}
		if rl := lm.rows[row]; len(rl.waiters) != 0 || len(a.held) != 0 || lm.heldLocks() != 1 {
			t.Fatalf("timed-out waiter left %d waiters, %d holdings", len(rl.waiters), len(a.held))
		}

		// Forced release of c's owner: its rows go, the waiter on one wakes.
		mustGrant(lm, c, other, true, 0)
		g.Go(func() { mustGrant(lm, a, row, true, time.Millisecond) })
		sim.Sleep(time.Millisecond)
		lm.ReleaseOwner("nn-c")
		g.Wait()
		if lm.heldLocks() != 1 || lm.rows[other] != nil || len(c.held) != 0 {
			t.Fatalf("after ReleaseOwner: %d locks held, c holds %d", lm.heldLocks(), len(c.held))
		}
		lm.ReleaseAll(c) // the dead owner's transaction ending later is harmless
		lm.ReleaseAll(a)

		// Every row is gone, and the next ones reuse the parked rowLocks.
		if len(lm.rows) != 0 || len(lm.txs) != 0 || len(lm.free) != 2 {
			t.Fatalf("%d rows, %d transactions, %d parked rowLocks after every release", len(lm.rows), len(lm.txs), len(lm.free))
		}
		parked := lm.free[1]
		mustGrant(lm, d, kvKey("t", "k"), false, 0)
		if lm.rows[kvKey("t", "k")] != parked || len(lm.free) != 1 {
			t.Fatal("a new row did not take a parked rowLock")
		}
		lm.ReleaseAll(d)
	})
}

// TestLockGrantAndTimeoutOnOneInstant: when the holder releases a row on
// the very instant a waiter's timeout expires, the waiter gets exactly one
// answer — the lock or ErrLockTimeout, never a lock it was told it did not
// get — at exactly the timeout, and no lock or queue entry outlives the
// release.
func TestLockGrantAndTimeoutOnOneInstant(t *testing.T) {
	sim := simtest.New(t)
	const timeout = 250 * time.Millisecond
	granted, timedOut := 0, 0
	clock.Run(sim, func() {
		for i := 0; i < 200; i++ {
			lm := newLockManager(sim, timeout)
			holder, waiter, row := &lockTx{}, &lockTx{}, plainKey("row")
			if _, err := lm.Acquire(holder, row, true); err != nil {
				t.Fatal(err)
			}
			g := clock.NewGroup(sim)
			g.Go(func() {
				sim.Sleep(timeout)
				lm.ReleaseAll(holder)
			})
			start := sim.Now()
			waited, err := lm.Acquire(waiter, row, true)
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
			lm.ReleaseAll(waiter)
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
