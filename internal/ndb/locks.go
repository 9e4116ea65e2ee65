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
// Lock waits time out after a configurable interval
// (clock.HostDeadlineIn: virtual on clock.Sim, real-time elsewhere): a
// timeout indicates either a deadlock or a lock held by a crashed peer; the
// DAL responds by aborting and retrying the transaction, exactly as NDB's
// lock-wait-timeout behaves.
type lockManager struct {
	clk         clock.Clock
	mu          sync.Mutex
	rows        map[string]*rowLock
	ownerOfTx   map[string]string   // txKey -> owner
	txHoldings  map[string][]string // txKey -> row keys held
	waitTimeout time.Duration
	// waits counts acquisitions that could not be granted immediately
	// (nil-safe; set by ndb.New when a telemetry registry is wired).
	waits *telemetry.Counter
}

type rowLock struct {
	exclusive string          // txKey of exclusive holder ("" when none)
	shared    map[string]bool // txKeys of shared holders
	waiters   []*lockWaiter
}

type lockWaiter struct {
	txKey     string
	exclusive bool
	ready     *clock.Event // set, under lm.mu, by the promote that grants the lock
}

func newLockManager(clk clock.Clock, waitTimeout time.Duration) *lockManager {
	if waitTimeout <= 0 {
		waitTimeout = 250 * time.Millisecond
	}
	return &lockManager{
		clk:         clk,
		rows:        make(map[string]*rowLock),
		ownerOfTx:   make(map[string]string),
		txHoldings:  make(map[string][]string),
		waitTimeout: waitTimeout,
	}
}

func (lm *lockManager) registerTx(txKey, owner string) {
	lm.mu.Lock()
	lm.ownerOfTx[txKey] = owner
	lm.mu.Unlock()
}

// holdsExclusive reports whether txKey already has key exclusively.
func (lm *lockManager) holdsExclusive(txKey, key string) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	rl := lm.rows[key]
	return rl != nil && rl.exclusive == txKey
}

// canGrant must be called with lm.mu held.
func (rl *rowLock) canGrant(txKey string, exclusive bool) bool {
	if exclusive {
		if rl.exclusive != "" && rl.exclusive != txKey {
			return false
		}
		// Upgrade allowed only when we are the sole shared holder.
		for holder := range rl.shared {
			if holder != txKey {
				return false
			}
		}
		return true
	}
	// Shared: compatible unless another tx holds exclusive.
	return rl.exclusive == "" || rl.exclusive == txKey
}

// grant must be called with lm.mu held.
func (lm *lockManager) grant(rl *rowLock, key, txKey string, exclusive bool) {
	already := rl.exclusive == txKey || rl.shared[txKey]
	if exclusive {
		delete(rl.shared, txKey)
		rl.exclusive = txKey
	} else if rl.exclusive != txKey {
		if rl.shared == nil {
			rl.shared = make(map[string]bool)
		}
		rl.shared[txKey] = true
	}
	if !already {
		lm.txHoldings[txKey] = append(lm.txHoldings[txKey], key)
	}
}

// Acquire blocks until the lock is granted or the wait times out. It
// returns the *virtual* time spent waiting (0 on an immediate grant) so
// callers can attribute lock contention per transaction and per span.
func (lm *lockManager) Acquire(txKey, key string, exclusive bool) (time.Duration, error) {
	lm.mu.Lock()
	rl := lm.rows[key]
	if rl == nil {
		rl = &rowLock{} //vet:allow hotpath one allocation per distinct row key, amortized over the row's lifetime in lm.rows
		lm.rows[key] = rl
	}
	if rl.canGrant(txKey, exclusive) {
		lm.grant(rl, key, txKey, exclusive)
		lm.mu.Unlock()
		return 0, nil
	}
	w := &lockWaiter{txKey: txKey, exclusive: exclusive, ready: clock.NewEvent(lm.clk)} //vet:allow hotpath waiter exists only on lock contention, off the uncontended grant path
	rl.waiters = append(rl.waiters, w)
	lm.mu.Unlock()
	lm.waits.Inc()
	waitStart := lm.clk.Now()

	if !w.ready.WaitBy(clock.HostDeadlineIn(lm.clk, lm.waitTimeout)) {
		// Timed out — unless a grant landed on the same instant: promote
		// sets ready under lm.mu, so under lm.mu the answer is final.
		lm.mu.Lock()
		granted := w.ready.IsSet()
		if !granted {
			rl.waiters = slices.DeleteFunc(rl.waiters, func(o *lockWaiter) bool { return o == w })
		}
		lm.mu.Unlock()
		if !granted {
			return lm.clk.Now().Sub(waitStart), store.ErrLockTimeout
		}
	}
	return lm.clk.Now().Sub(waitStart), nil
}

// promote wakes every waiter that is now grantable. Must be called with
// lm.mu held.
func (lm *lockManager) promote(rl *rowLock, key string) {
	for {
		progressed := false
		remaining := rl.waiters[:0]
		for i, w := range rl.waiters {
			if rl.canGrant(w.txKey, w.exclusive) {
				lm.grant(rl, key, w.txKey, w.exclusive)
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
		rl.waiters = remaining
		if !progressed {
			return
		}
	}
}

// ReleaseAll releases every lock held by txKey and wakes waiters.
func (lm *lockManager) ReleaseAll(txKey string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.releaseAllLocked(txKey)
	delete(lm.ownerOfTx, txKey)
}

func (lm *lockManager) releaseAllLocked(txKey string) {
	for _, key := range lm.txHoldings[txKey] {
		rl := lm.rows[key]
		if rl == nil {
			continue
		}
		if rl.exclusive == txKey {
			rl.exclusive = ""
		}
		delete(rl.shared, txKey)
		lm.promote(rl, key)
		if rl.exclusive == "" && len(rl.shared) == 0 && len(rl.waiters) == 0 {
			delete(lm.rows, key)
		}
	}
	delete(lm.txHoldings, txKey)
}

// ReleaseOwner force-releases locks of every transaction begun by owner
// (crash cleanup).
func (lm *lockManager) ReleaseOwner(owner string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for txKey, o := range lm.ownerOfTx {
		if o == owner {
			lm.releaseAllLocked(txKey)
			delete(lm.ownerOfTx, txKey)
		}
	}
}

// heldLocks reports the number of row locks currently held (test hook).
func (lm *lockManager) heldLocks() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	n := 0
	for _, keys := range lm.txHoldings {
		n += len(keys)
	}
	return n
}
