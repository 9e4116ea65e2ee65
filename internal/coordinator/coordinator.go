// Package coordinator implements λFS's pluggable "Coordinator" service
// (§3.1, §3.5): it tracks which NameNode instances are alive in which
// deployments, delivers the coherence protocol's INV messages, collects
// ACKs (excusing instances that terminate mid-protocol), and provides the
// crash-detection hook that lets the store break locks held by dead
// NameNodes (§3.6). Leader election for the serverful baselines is
// included.
//
// Two implementations are provided, as in the paper: a ZooKeeper-like
// in-memory service (zk.go) and an NDB-backed one that persists membership
// in the metadata store and pays store round trips for protocol messages
// (ndbcoord.go).
//
// # Concurrency and ownership
//
// Coordinators are safe for concurrent use by any number of NameNodes.
// Membership is owned by the coordinator's internal mutex; INV delivery
// never runs under it — rounds snapshot the membership, dedup and sort
// targets by id (so concurrent rounds are deterministic regardless of
// map iteration order), then fan out on a bounded pool
// (invFanout) of clock.Go goroutines with a single AckTimeout
// deadline per round and hedged re-sends after Config.HedgeAfter.
// Invalidation handlers are invoked from those delivery goroutines, may
// run concurrently with each other, and must be idempotent (hedging can
// deliver an INV twice). A member that expires mid-round is excused
// from the ACK gather; remaining timeouts surface as one errors.Join
// naming every un-ACKed target.
package coordinator

import (
	"errors"
	"time"

	"lambdafs/internal/namespace"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// Invalidation is the payload of an INV message (§3.5, Appendix D).
type Invalidation struct {
	// Path is the invalidated path: every cached entry at or under it goes,
	// so a subtree operation's prefix INV is an INV of its root.
	Path string
	// INodeID identifies the modified INode (diagnostics).
	INodeID namespace.INodeID
	// Writer is the instance performing the write (never invalidates
	// itself through the protocol; it updates its own cache in-place).
	Writer string
}

// Handler is invoked on a NameNode instance when an INV arrives; returning
// constitutes the ACK.
type Handler func(inv Invalidation)

// Session represents one registered NameNode instance. Closing it removes
// the instance from the membership (normal scale-in); Crash simulates an
// abrupt termination, which additionally fires the coordinator's crash
// callback so store locks can be broken.
type Session interface {
	Close()
	Crash()
	ID() string
}

// ErrAckTimeout reports that a live member failed to ACK in time.
var ErrAckTimeout = errors.New("coordinator: ACK timeout")

// Coordinator tracks instance liveness and runs the INV/ACK exchange.
type Coordinator interface {
	// Register adds an instance to deployment dep. The handler receives
	// INVs targeted at the deployment.
	Register(dep int, id string, h Handler) Session

	// Members returns the live instance IDs of deployment dep.
	Members(dep int) []string

	// MemberCount returns the total number of live instances.
	MemberCount() int

	// InvalidateBatchTraced implements Algorithm 1 steps 1–2 for a batch
	// of invalidations in one INV/ACK round: every live member of each
	// deployment in deps receives the whole batch in a single message,
	// all targets concurrently (bounded by invFanout) under a
	// single ACK deadline, with hedged re-sends to stragglers after
	// Config.HedgeAfter, and the call blocks until all required ACKs
	// arrive. Instances that terminate mid-protocol are excused
	// (Algorithm 1 step 1). The round's latency is therefore ~max of the
	// per-target latencies instead of the per-path sum of one round per
	// path. An invalidation is not delivered to the member that is its
	// Writer. Each target's INV/ACK leg becomes a
	// coherence.target child span of tc tagged with the target's
	// instance ID; a nil tc records nothing. On ACK timeout the returned
	// error joins one wrapped ErrAckTimeout per missing target, naming it.
	// deps and invs are read only until the call returns, so the caller
	// may reuse both.
	InvalidateBatchTraced(deps []int, invs []Invalidation, tc *trace.Ctx) error

	// TryLead attempts to acquire leadership of group for id, returning
	// true when id is (or becomes) the leader. Leadership is released
	// when the id's session closes or crashes.
	TryLead(group, id string) bool

	// Leader returns the current leader of group ("" when none).
	Leader(group string) string
}

// Config tunes the coordinator's latency model.
type Config struct {
	// HopLatency is the one-way latency of a message routed through the
	// coordinator (leader → coordinator → member, and back for the ACK).
	HopLatency time.Duration
	// AckTimeout bounds the wait for ACKs from live members (real time
	// scaled by the clock; generous because handler execution is fast).
	AckTimeout time.Duration
	// HedgeAfter, when > 0, re-sends the INV to any target that has not
	// ACKed within this duration (hedged stragglers; batch rounds only).
	// Duplicate delivery is benign — invalidation handlers are
	// idempotent, they only remove cache entries.
	HedgeAfter time.Duration
	// OnCrash, when set, is invoked with the instance ID of every crashed
	// session (used to break store locks, §3.6).
	OnCrash func(id string)

	// Metrics, when non-nil, receives coordinator instruments
	// (lambdafs_coordinator_*): live session gauge, lease open/expiry
	// counters, invalidation rounds and watch deliveries, and leader
	// failovers.
	Metrics *telemetry.Registry
}

// invFanout bounds how many concurrent INV deliveries one batch round
// keeps in flight. It models the coordinator's outbound messaging
// capacity.
const invFanout = 64

// DefaultConfig returns ZooKeeper-like latencies: sub-millisecond hops.
// HedgeAfter is far above a healthy round's latency, so hedges fire only
// for genuine stragglers (a stalled handler or a wedged delivery).
func DefaultConfig() Config {
	return Config{
		HopLatency: 500 * time.Microsecond,
		AckTimeout: 30 * time.Second,
		HedgeAfter: 250 * time.Millisecond,
	}
}
