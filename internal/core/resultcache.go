package core

import (
	"sync"

	"lambdafs/internal/namespace"
)

// resultCache is the NameNode-side response cache for resubmitted writes
// (§3.2): when network delays or failures prevent a client from receiving
// a result, the retried write (same ClientID/Seq) returns the cached result
// instead of re-executing, which would answer ErrExists or ErrNotFound for
// a write that succeeded. Reads (read, stat, ls) never enter it: they change
// nothing, so running one again is observationally equivalent to replaying
// it. Bounded FIFO.
type resultCache struct {
	mu    sync.Mutex
	m     map[namespace.RequestKey]*namespace.Response
	order []namespace.RequestKey
	cap   int
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &resultCache{m: make(map[namespace.RequestKey]*namespace.Response), cap: capacity}
}

func (rc *resultCache) get(key namespace.RequestKey) *namespace.Response {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.m[key]
}

func (rc *resultCache) put(key namespace.RequestKey, resp *namespace.Response) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, exists := rc.m[key]; exists {
		rc.m[key] = resp
		return
	}
	if len(rc.order) >= rc.cap {
		oldest := rc.order[0]
		rc.order = rc.order[1:]
		delete(rc.m, oldest)
	}
	rc.m[key] = resp
	rc.order = append(rc.order, key)
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.m)
}
