package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// FaultKind names an injectable fault class.
type FaultKind string

// The fault classes, one per substrate boundary.
const (
	FaultKillInstance  FaultKind = "kill_instance"   // faas: instance dies mid-invocation
	FaultPoolExhausted FaultKind = "pool_exhausted"  // faas: resource pool refuses new instances
	FaultShardStall    FaultKind = "shard_stall"     // ndb: one shard slows down (GC pause, hot disk)
	FaultShardCrash    FaultKind = "shard_crash"     // ndb: one shard unreachable, then recovers
	FaultTxAbort       FaultKind = "tx_abort"        // ndb: commit aborted (node failure, epoch change)
	FaultRPCDrop       FaultKind = "rpc_drop"        // rpc: TCP call dropped, forcing failover
	FaultRPCDelay      FaultKind = "rpc_delay"       // rpc: TCP call stalled, forcing hedged retry
	FaultLeaseExpiry   FaultKind = "lease_expiry"    // coordinator: ephemeral session expires
	FaultLeaderFlap    FaultKind = "leader_flap"     // coordinator: leadership rotates without crash
	FaultWALDrop       FaultKind = "wal_drop"        // ndb: a committed WAL record never reaches media
	FaultWALTear       FaultKind = "wal_torn_write"  // ndb: crash mid-append leaves a torn WAL tail
	FaultCkptLoss      FaultKind = "checkpoint_loss" // ndb: one shard's checkpoint round silently lost
	FaultCrashRestart  FaultKind = "crash_restart"   // ndb: whole store killed, recovered from media
	FaultTenantStorm   FaultKind = "tenant_storm"    // tenant: one tenant floods past its admission rate
)

// ErrInjected is the error surfaced by injected ndb faults. It crosses the
// RPC wire as its message string (namespace.FromWire rebuilds unknown
// errors by text), so callers detect injected failures with IsInjected.
var ErrInjected = errors.New("chaos: injected fault")

// IsInjected reports whether err is an injected fault, either directly or
// rebuilt from its wire representation.
func IsInjected(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjected) {
		return true
	}
	return strings.Contains(err.Error(), ErrInjected.Error())
}

// Injector is the fault scheduler. Faults are armed (by the harness or an
// experiment driver) and fire when the instrumented substrate consults the
// matching hook. All methods are safe for concurrent use; armed counters
// make firing deterministic under a deterministic caller — the n-th
// consult fires iff armed at the time.
//
// The Injector deliberately speaks only primitive types so it can be wired
// into faas, ndb, and rpc configs without this package importing them.
type Injector struct {
	mu sync.Mutex

	txAborts    int           // commits to abort
	stallShard  int           // shard index under stall/crash
	stallDelay  time.Duration // added service time per access
	stallLeft   int           // accesses remaining under the stall
	killInvokes int           // invocations to kill mid-flight
	denyProvs   int           // provisioning attempts to deny
	rpcDrops    int           // TCP calls to drop
	rpcDelays   int           // TCP calls to stall
	rpcDelayDur time.Duration // stall length
	walDrops    int           // WAL appends to lose entirely
	walTears    int           // WAL appends to tear
	walTearKeep int           // bytes of a torn append that reach media
	ckptLosses  int           // shard checkpoint rounds to lose
	fired       map[FaultKind]uint64
	onFault     func(kind FaultKind, detail string)
}

// NewInjector returns an injector with nothing armed.
func NewInjector() *Injector {
	return &Injector{fired: make(map[FaultKind]uint64)}
}

// SetOnFault installs a callback invoked (outside the injector lock) every
// time a fault fires — the harness uses it to emit chaos_fault events onto
// the PR-1 tracer.
func (in *Injector) SetOnFault(fn func(kind FaultKind, detail string)) {
	in.mu.Lock()
	in.onFault = fn
	in.mu.Unlock()
}

func (in *Injector) firedLocked(kind FaultKind, detail string) func() {
	in.fired[kind]++
	fn := in.onFault
	if fn == nil {
		return func() {}
	}
	return func() { fn(kind, detail) }
}

// --- Arming ---------------------------------------------------------------

// arm applies set to the armed counters under the injector lock.
func (in *Injector) arm(set func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	set()
}

// ArmTxAbort aborts the next n ndb commits.
func (in *Injector) ArmTxAbort(n int) { in.arm(func() { in.txAborts += n }) }

// ArmShardStall slows shard by delay for the next accesses touches; a
// large delay models a crash/recover window (the shard is unreachable
// until its redo log replays), a small one a GC pause.
func (in *Injector) ArmShardStall(shard int, delay time.Duration, accesses int) {
	in.arm(func() { in.stallShard, in.stallDelay, in.stallLeft = shard, delay, accesses })
}

// ArmKillInvocation kills the instance serving each of the next n HTTP
// invocations, mid-flight.
func (in *Injector) ArmKillInvocation(n int) { in.arm(func() { in.killInvokes += n }) }

// ArmProvisionFailure denies the next n provisioning attempts (cold-start
// storm / pool exhaustion).
func (in *Injector) ArmProvisionFailure(n int) { in.arm(func() { in.denyProvs += n }) }

// ArmRPCDrop drops the next n TCP RPCs.
func (in *Injector) ArmRPCDrop(n int) { in.arm(func() { in.rpcDrops += n }) }

// ArmRPCDelay stalls each of the next n TCP RPCs by d.
func (in *Injector) ArmRPCDelay(d time.Duration, n int) {
	in.arm(func() { in.rpcDelays, in.rpcDelayDur = in.rpcDelays+n, d })
}

// ArmWALDrop loses the next n committed WAL records entirely (the commit
// acks, the record never reaches media — the crash eats the log tail).
func (in *Injector) ArmWALDrop(n int) { in.arm(func() { in.walDrops += n }) }

// ArmWALTear tears the next n WAL appends: only keepBytes of each frame
// reach media, modelling a crash mid-write. Recovery must cut the log at
// the torn frame.
func (in *Injector) ArmWALTear(keepBytes, n int) {
	in.arm(func() { in.walTears, in.walTearKeep = in.walTears+n, keepBytes })
}

// ArmCheckpointLoss silently loses the next n per-shard checkpoint
// rounds (the shard keeps its previous snapshot, so the WAL retains the
// records covering the gap).
func (in *Injector) ArmCheckpointLoss(n int) { in.arm(func() { in.ckptLosses += n }) }

// --- Substrate hooks ------------------------------------------------------

// NDBOnCommit is wired into ndb.Config.OnCommit.
func (in *Injector) NDBOnCommit(owner string) error {
	in.mu.Lock()
	if in.txAborts <= 0 {
		in.mu.Unlock()
		return nil
	}
	in.txAborts--
	notify := in.firedLocked(FaultTxAbort, "owner="+owner)
	in.mu.Unlock()
	notify()
	return ErrInjected
}

// NDBOnShardService is wired into ndb.Config.OnShardService.
func (in *Injector) NDBOnShardService(shard int) time.Duration {
	in.mu.Lock()
	if in.stallLeft <= 0 || shard != in.stallShard {
		in.mu.Unlock()
		return 0
	}
	in.stallLeft--
	d := in.stallDelay
	kind := FaultShardStall
	if d >= 100*time.Millisecond {
		kind = FaultShardCrash
	}
	notify := in.firedLocked(kind, fmt.Sprintf("shard=%d delay=%v", shard, d))
	in.mu.Unlock()
	notify()
	return d
}

// FaasOnInvoke is wired into faas.Config.OnInvoke; true kills the serving
// instance mid-invocation.
func (in *Injector) FaasOnInvoke(dep int, instID string) bool {
	in.mu.Lock()
	if in.killInvokes <= 0 {
		in.mu.Unlock()
		return false
	}
	in.killInvokes--
	notify := in.firedLocked(FaultKillInstance, fmt.Sprintf("dep=%d inst=%s", dep, instID))
	in.mu.Unlock()
	notify()
	return true
}

// FaasOnProvision is wired into faas.Config.OnProvision; false denies the
// provisioning attempt.
func (in *Injector) FaasOnProvision(dep int) bool {
	in.mu.Lock()
	if in.denyProvs <= 0 {
		in.mu.Unlock()
		return true
	}
	in.denyProvs--
	notify := in.firedLocked(FaultPoolExhausted, fmt.Sprintf("dep=%d", dep))
	in.mu.Unlock()
	notify()
	return false
}

// RPCOnTCP is wired into rpc.Config.OnTCPFault.
func (in *Injector) RPCOnTCP(clientID string, dep int) (drop bool, delay time.Duration) {
	in.mu.Lock()
	if in.rpcDrops > 0 {
		in.rpcDrops--
		notify := in.firedLocked(FaultRPCDrop, fmt.Sprintf("client=%s dep=%d", clientID, dep))
		in.mu.Unlock()
		notify()
		return true, 0
	}
	if in.rpcDelays > 0 {
		in.rpcDelays--
		d := in.rpcDelayDur
		notify := in.firedLocked(FaultRPCDelay, fmt.Sprintf("client=%s dep=%d delay=%v", clientID, dep, d))
		in.mu.Unlock()
		notify()
		return false, d
	}
	in.mu.Unlock()
	return false, 0
}

// NDBOnWALAppend is wired into ndb.Config.OnWALAppend; it returns how
// many of the frame's bytes reach durable media. Drops win over tears
// when both are armed.
func (in *Injector) NDBOnWALAppend(shard int, lsn uint64, size int) int {
	in.mu.Lock()
	if in.walDrops > 0 {
		in.walDrops--
		notify := in.firedLocked(FaultWALDrop, fmt.Sprintf("shard=%d lsn=%d size=%d", shard, lsn, size))
		in.mu.Unlock()
		notify()
		return 0
	}
	if in.walTears > 0 {
		in.walTears--
		keep := in.walTearKeep
		if keep >= size {
			keep = size - 1 // a tear must lose at least one byte
		}
		if keep < 0 {
			keep = 0
		}
		notify := in.firedLocked(FaultWALTear, fmt.Sprintf("shard=%d lsn=%d keep=%d/%d", shard, lsn, keep, size))
		in.mu.Unlock()
		notify()
		return keep
	}
	in.mu.Unlock()
	return size
}

// NDBOnCheckpoint is wired into ndb.Config.OnCheckpoint; false loses the
// shard's checkpoint round.
func (in *Injector) NDBOnCheckpoint(shard int) bool {
	in.mu.Lock()
	if in.ckptLosses <= 0 {
		in.mu.Unlock()
		return true
	}
	in.ckptLosses--
	notify := in.firedLocked(FaultCkptLoss, fmt.Sprintf("shard=%d", shard))
	in.mu.Unlock()
	notify()
	return false
}

// NoteFired records an externally executed fault (lease expiry and leader
// flap run through coordinator methods rather than hooks) so counters and
// the OnFault stream cover every class.
func (in *Injector) NoteFired(kind FaultKind, detail string) {
	in.mu.Lock()
	notify := in.firedLocked(kind, detail)
	in.mu.Unlock()
	notify()
}

// Fired returns a copy of the per-kind fired counters.
func (in *Injector) Fired() map[FaultKind]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[FaultKind]uint64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// Pending reports whether any fault is still armed.
func (in *Injector) Pending() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.txAborts > 0 || in.stallLeft > 0 || in.killInvokes > 0 ||
		in.denyProvs > 0 || in.rpcDrops > 0 || in.rpcDelays > 0 ||
		in.walDrops > 0 || in.walTears > 0 || in.ckptLosses > 0
}

// Reset disarms everything (fired counters are preserved — they are
// monotone by contract).
func (in *Injector) Reset() {
	in.mu.Lock()
	in.txAborts, in.stallLeft, in.killInvokes = 0, 0, 0
	in.denyProvs, in.rpcDrops, in.rpcDelays = 0, 0, 0
	in.walDrops, in.walTears, in.ckptLosses = 0, 0, 0
	in.mu.Unlock()
}
