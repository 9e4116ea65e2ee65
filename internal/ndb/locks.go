package ndb

import (
	"slices"
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// lockManager implements strict two-phase row locking with shared and
// exclusive modes, lock upgrades, FIFO-ish waiter wakeup, and owner-based
// forced release (used when the Coordinator declares a NameNode dead,
// §3.6).
//
// Lock waits time out after a configurable interval of virtual time: a
// timeout indicates either a deadlock or a lock held by a crashed peer; the
// DAL responds by aborting and retrying the transaction, exactly as NDB's
// lock-wait-timeout behaves.
type lockManager struct {
	clk         *clock.Sim
	mu          sync.Mutex
	rows        map[rowKey]*rowLock
	txs         map[*lockTx]struct{} // those holding at least one row (ReleaseOwner's index)
	free        []*rowLock           // emptied rowLocks, reused with their slices
	freeWaiters []*lockWaiter        // spent waiters, reused with their events
	waitTimeout time.Duration
	// waits counts acquisitions that could not be granted immediately
	// (nil-safe; set by ndb.New when a telemetry registry is wired).
	waits *telemetry.Counter
}

// lockTx is a transaction's identity in the lock table and its own record
// of the rows it holds, both guarded by the table's mutex.
type lockTx struct {
	owner   string
	held    []*rowLock
	heldBuf [16]*rowLock // backs held: a read's lock set or a rename's fits
}

// rowLock is one row's entry in the lock table. A holder's lockTx points
// at it, so a release finds it without a lookup; it stays in lm.rows, under
// key, for as long as anyone holds or waits for it.
type rowLock struct {
	key       rowKey
	exclusive *lockTx   // nil when none
	shared    []*lockTx // few at a time
	waiters   []*lockWaiter
}

type lockWaiter struct {
	tx        *lockTx
	exclusive bool
	ready     *clock.Event // set, under lm.mu, by the promote that grants the lock
}

// lockTableHint sizes the lock table well above the rows locked at once.
// A map churned by acquire and release grows once its deletes have left
// enough tombstones, and a delete leaves one only in a full group, which
// the runtime's per-map hash seed decides; a sparse table seldom has a
// full group, so identical runs allocate alike.
const lockTableHint = 512

func newLockManager(clk *clock.Sim, waitTimeout time.Duration) *lockManager {
	if waitTimeout <= 0 {
		waitTimeout = 250 * time.Millisecond
	}
	return &lockManager{
		clk:         clk,
		rows:        make(map[rowKey]*rowLock, lockTableHint),
		txs:         make(map[*lockTx]struct{}),
		waitTimeout: waitTimeout,
	}
}

// canGrant must be called with lm.mu held.
func (rl *rowLock) canGrant(tx *lockTx, exclusive bool) bool {
	if exclusive {
		if rl.exclusive != nil && rl.exclusive != tx {
			return false
		}
		// Upgrade allowed only when we are the sole shared holder.
		for _, holder := range rl.shared {
			if holder != tx {
				return false
			}
		}
		return true
	}
	// Shared: compatible unless another tx holds exclusive.
	return rl.exclusive == nil || rl.exclusive == tx
}

// grant must be called with lm.mu held.
func (lm *lockManager) grant(rl *rowLock, tx *lockTx, exclusive bool) {
	i := slices.Index(rl.shared, tx)
	already := rl.exclusive == tx || i >= 0
	if exclusive {
		if i >= 0 {
			rl.shared = slices.Delete(rl.shared, i, i+1)
		}
		rl.exclusive = tx
	} else if !already {
		rl.shared = append(rl.shared, tx)
	}
	if !already {
		if len(tx.held) == 0 {
			tx.held = tx.heldBuf[:0]
			lm.txs[tx] = struct{}{}
		}
		tx.held = append(tx.held, rl)
	}
}

// Acquire blocks until the lock is granted or the wait times out. It
// returns the *virtual* time spent waiting (0 on an immediate grant) so
// callers can attribute lock contention per transaction and per span. An
// acquire builds no string and, rowLocks and waiters being reused, allocates
// nothing once the table is warm, contended or not.
func (lm *lockManager) Acquire(tx *lockTx, key rowKey, exclusive bool) (time.Duration, error) {
	lm.mu.Lock()
	rl := lm.rows[key]
	if rl == nil {
		if n := len(lm.free); n > 0 {
			rl, lm.free = lm.free[n-1], lm.free[:n-1]
		} else {
			rl = new(rowLock)
		}
		rl.key = key
		lm.rows[key] = rl
	}
	if rl.canGrant(tx, exclusive) {
		lm.grant(rl, tx, exclusive)
		lm.mu.Unlock()
		return 0, nil
	}
	var w *lockWaiter
	if n := len(lm.freeWaiters); n > 0 {
		w, lm.freeWaiters = lm.freeWaiters[n-1], lm.freeWaiters[:n-1]
	} else {
		w = &lockWaiter{ready: clock.NewEvent(lm.clk)}
	}
	w.tx, w.exclusive = tx, exclusive
	rl.waiters = append(rl.waiters, w)
	lm.mu.Unlock()
	lm.waits.Inc()
	waitStart := lm.clk.Now()

	granted := w.ready.WaitBy(clock.DeadlineIn(lm.clk, lm.waitTimeout))
	lm.mu.Lock()
	// A timeout may lose to a grant on the same instant: promote sets ready
	// under lm.mu, so under lm.mu the answer is final. Either way no row
	// lists w any more, and it is spare.
	if !granted {
		if granted = w.ready.IsSet(); !granted {
			rl.waiters = slices.DeleteFunc(rl.waiters, func(o *lockWaiter) bool { return o == w })
		}
	}
	w.tx = nil
	w.ready.Reset()
	lm.freeWaiters = append(lm.freeWaiters, w)
	lm.mu.Unlock()
	if !granted {
		return lm.clk.Now().Sub(waitStart), store.ErrLockTimeout
	}
	return lm.clk.Now().Sub(waitStart), nil
}

// promote wakes every waiter that is now grantable. Must be called with
// lm.mu held.
func (lm *lockManager) promote(rl *rowLock) {
	for {
		progressed := false
		remaining := rl.waiters[:0]
		for i, w := range rl.waiters {
			if rl.canGrant(w.tx, w.exclusive) {
				lm.grant(rl, w.tx, w.exclusive)
				w.ready.Set()
				progressed = true
				// Exclusive grant blocks everything behind it.
				if w.exclusive {
					remaining = append(remaining, rl.waiters[i+1:]...)
					break
				}
			} else {
				remaining = append(remaining, w)
			}
		}
		clear(rl.waiters[len(remaining):]) // a parked rowLock must not pin woken waiters
		rl.waiters = remaining
		if !progressed {
			return
		}
	}
}

// ReleaseAll releases every lock held by tx and wakes waiters.
func (lm *lockManager) ReleaseAll(tx *lockTx) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.releaseAllLocked(tx)
}

func (lm *lockManager) releaseAllLocked(tx *lockTx) {
	for _, rl := range tx.held {
		if rl.exclusive == tx {
			rl.exclusive = nil
		}
		if i := slices.Index(rl.shared, tx); i >= 0 {
			rl.shared = slices.Delete(rl.shared, i, i+1)
		}
		lm.promote(rl)
		if rl.exclusive == nil && len(rl.shared) == 0 && len(rl.waiters) == 0 {
			delete(lm.rows, rl.key)
			rl.key = rowKey{}             // a parked rowLock pins no name
			lm.free = append(lm.free, rl) // parked, slices and all, for the next new row
		}
	}
	tx.held = nil
	delete(lm.txs, tx)
}

// ReleaseOwner force-releases locks of every transaction begun by owner
// (crash cleanup).
func (lm *lockManager) ReleaseOwner(owner string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for tx := range lm.txs {
		if tx.owner == owner {
			lm.releaseAllLocked(tx)
		}
	}
}

// heldLocks reports the number of row locks currently held (test hook).
func (lm *lockManager) heldLocks() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	n := 0
	for tx := range lm.txs {
		n += len(tx.held)
	}
	return n
}
