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
// it.
//
// A client is sequential: it resubmits only its one outstanding request,
// so the cache keeps each client's latest reply, {Seq, reply}, and answers
// only on an exact (ClientID, Seq) match. An older Seq never displaces a
// newer entry, so a stale resubmission re-executes, as one whose client was
// evicted does. At most cap clients are kept, evicted oldest-first through
// a ring of their IDs.
type resultCache struct {
	mu   sync.Mutex
	m    map[string]clientResult
	ring []string // client IDs in arrival order, grown to cap then reused
	next int      // ring slot the next new client takes once it is full
	cap  int
}

// clientResult is one client's latest write and its reply.
type clientResult struct {
	seq  uint64
	resp *namespace.Response
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &resultCache{m: make(map[string]clientResult), cap: capacity}
}

func (rc *resultCache) get(key namespace.RequestKey) *namespace.Response {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r, ok := rc.m[key.ClientID]; ok && r.seq == key.Seq {
		return r.resp
	}
	return nil
}

func (rc *resultCache) put(key namespace.RequestKey, resp *namespace.Response) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r, ok := rc.m[key.ClientID]; ok {
		if key.Seq >= r.seq {
			rc.m[key.ClientID] = clientResult{key.Seq, resp}
		}
		return
	}
	if len(rc.ring) < rc.cap {
		rc.ring = append(rc.ring, key.ClientID)
	} else {
		delete(rc.m, rc.ring[rc.next])
		rc.ring[rc.next] = key.ClientID
		rc.next = (rc.next + 1) % rc.cap
	}
	rc.m[key.ClientID] = clientResult{key.Seq, resp}
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.m)
}
