// Package rpc implements λFS's hybrid serverless RPC fabric (§3.2):
//
//   - HTTP RPCs travel through the FaaS platform's API gateway. They are
//     slow (two gateway hops) but FaaS-aware: they are the only signal
//     that lets the platform scale a deployment out.
//   - TCP RPCs go directly to a NameNode instance over a connection the
//     NameNode established back to the client VM's TCP server after a
//     previous HTTP exchange. They are fast but invisible to the
//     auto-scaler.
//
// The client library keeps the two in tension with the randomized
// HTTP-TCP replacement mechanism of §3.4: with a small probability a
// request that could go over TCP also makes an HTTP invocation, so load
// stays visible to the auto-scaler. In the paper the replaced request goes
// through the gateway alone. Here, beyond the paper, it races its
// invocation against its TCP call and takes the first success: the
// invocation still runs to completion (gateway, admission, cold start,
// engine, billing), but the client no longer waits out the detour. A read
// run twice is harmless. A replaced write is marked Raced
// (namespace.Request.Raced) on every copy and retry of its Seq: each of its
// transactions first locks its client's result row in the store, so one
// copy executes and the other answers what it did, even when the copies
// reach different instances (internal/core's resultrow.go). A raced delete
// or mv that finds a directory is declined and re-issued under a fresh Seq,
// neither raced nor replaced, so the subtree protocol never races.
// The client also shares TCP connections between co-located clients
// (Figure 4), retries with exponential backoff and jitter, hedges
// stragglers (Appendix B), and falls into anti-thrashing mode under
// latency collapse (Appendix C).
package rpc

import (
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// Server executes metadata requests; λFS NameNodes implement it.
type Server interface {
	Execute(req namespace.Request) *namespace.Response
}

// Invoker performs HTTP invocations of a deployment; the λFS system
// adapts the FaaS platform to it. The payload is a *Payload the caller
// owns: Invoke keeps no reference to it once it returns.
type Invoker interface {
	Invoke(dep int, payload any) (any, error)
}

// Payload is the body of an HTTP invocation: the request plus enough
// client-side addressing for the NameNode to proactively establish TCP
// connections back to the client VM (§3.2).
type Payload struct {
	Req namespace.Request
	// ReplyTo is the issuing client's TCP server; the serving NameNode
	// connects back to it after handling the request.
	ReplyTo *TCPServer
	// TC is the invocation's trace context (nil when untraced); the FaaS
	// platform attaches gateway/admission/cold-start spans to it.
	TC *trace.Ctx
}

// TraceCtx exposes the trace context to the platform (faas's carrier
// interface) without faas importing this package.
func (p *Payload) TraceCtx() *trace.Ctx { return p.TC }

// Config tunes the RPC fabric.
type Config struct {
	// TCPOneWay is the one-way client↔NameNode latency of the direct TCP
	// path; each leg takes TCPOneWay·(1 ± tcpJitter).
	TCPOneWay time.Duration
	// HTTPReplaceProb is the probability that a request with a TCP
	// connection also makes an HTTP invocation (§3.4's fine-grained
	// auto-scaling control; ≤1% works best per the paper). A replaced
	// request races the invocation against the TCP call and answers with
	// the first success; a replaced write is raced through its client's
	// result row, so it executes once.
	HTTPReplaceProb float64

	// Seed is the base seed for per-client randomness (HTTP-replacement
	// draws and backoff jitter). Each client derives its stream from
	// Seed mixed with a hash of its id, so a whole-run seed replays every
	// client's jitter byte-for-byte while keeping clients decorrelated.
	Seed int64

	// OnTCPFault, when non-nil, is consulted before every TCP RPC with the
	// issuing client id and target deployment. A positive delay stalls the
	// RPC (fault injection: network jitter forcing hedged retries); drop
	// fails it with a lost connection, forcing the failover and replacement
	// paths. Must be safe for concurrent use.
	OnTCPFault func(clientID string, dep int) (drop bool, delay time.Duration)

	// Metrics, when non-nil, receives RPC instruments (lambdafs_rpc_*):
	// in-flight gauge, end-to-end latency histogram, and counters for
	// TCP/HTTP calls, retries, hedges, retry-budget exhaustions,
	// failovers, and anti-thrash triggers.
	Metrics *telemetry.Registry
}

// DefaultConfig mirrors the paper's settings: ~0.3 ms one-way TCP and a
// replacement probability under 1% (§3.4).
func DefaultConfig() Config {
	return Config{
		TCPOneWay:       300 * time.Microsecond,
		HTTPReplaceProb: 0.005,
	}
}

// tcpJitter spreads each one-way TCP latency uniformly over
// TCPOneWay·(1 ± tcpJitter), from a per-client stream of Seed. With every
// message taking exactly TCPOneWay, closed-loop clients whose ops all
// answer at one latency send at the same instants for good, and cost,
// billed per instance busy interval, then hangs on the few events that
// knock a client off that beat. The paper gives the mean latency only
// (DESIGN §1's network row).
const tcpJitter = 0.05

// clientsPerTCPServer is the n of §3.2's "at most n clients per TCP
// server" on a VM. The paper gives no value; 128 is the one every
// experiment has run.
const clientsPerTCPServer = 128

// Straggler mitigation (Appendix B): a read whose latency passes
// stragglerThreshold × the moving mean of the client's last
// latencyWindow ops, and at least stragglerFloor, fires a hedge. The
// mode arms once the window holds latencyWindow/2 samples.
const (
	stragglerThreshold = 10
	stragglerFloor     = 50 * time.Millisecond
	latencyWindow      = 64
)

// Anti-thrashing (Appendix C): an op slower than antiThrashThreshold (the
// paper's T, 2–3) × the windowed mean, and than stragglerFloor/2, puts
// the client in the mode for AntiThrashHold, during which it makes no
// HTTP replacement.
const (
	antiThrashThreshold = 2.5
	// AntiThrashHold is exported so a harness can wait the mode out.
	AntiThrashHold = 5 * time.Second
)

// Retry policy for transport-level failures (§3.2: avoid request storms
// on the FaaS platform): at most maxAttempts attempts, the backoff before
// retry k jittered over backoffBase·2^(k-1), capped at backoffMax.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
	maxAttempts = 10
)

// Conn is one TCP connection from a client VM's TCP server to a NameNode
// instance.
type Conn struct {
	inst *faas.Instance
	srv  Server
}

// NewConn builds a connection handle (exposed for the NameNode side).
func NewConn(inst *faas.Instance, srv Server) *Conn {
	return &Conn{inst: inst, srv: srv}
}

// Alive reports whether the remote instance still exists.
func (c *Conn) Alive() bool { return c.inst != nil && c.inst.Alive() }

// InstanceID identifies the remote instance.
func (c *Conn) InstanceID() string { return c.inst.ID() }

// TCPServer is the per-VM endpoint NameNodes connect back to. Clients on
// the VM share its connections, rotating across them so load spreads over
// every instance of a deployment (auto-scaled instances would otherwise
// sit idle behind the first-established connection).
type TCPServer struct {
	mu    sync.Mutex
	conns map[int][]*Conn // deployment -> connections
	next  map[int]int     // deployment -> rotation cursor
}

// NewTCPServer returns an empty TCP server.
func NewTCPServer() *TCPServer {
	return &TCPServer{conns: make(map[int][]*Conn), next: make(map[int]int)}
}

// Offer registers a NameNode-initiated connection for deployment dep,
// deduplicating by instance.
func (s *TCPServer) Offer(dep int, c *Conn) {
	if c == nil || !c.Alive() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, existing := range s.conns[dep] {
		if existing.inst == c.inst {
			return
		}
	}
	s.conns[dep] = append(s.conns[dep], c)
}

// ConnFor returns a live connection to deployment dep (round-robin over
// the live set), pruning dead ones. exclude skips a specific instance
// (used by hedging to pick a *different* NameNode).
func (s *TCPServer) ConnFor(dep int, exclude *Conn) *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := s.conns[dep]
	live := conns[:0]
	for _, c := range conns {
		if c.Alive() {
			live = append(live, c)
		}
	}
	s.conns[dep] = live
	if len(live) == 0 {
		return nil
	}
	start := s.next[dep]
	s.next[dep] = start + 1
	for i := 0; i < len(live); i++ {
		c := live[(start+i)%len(live)]
		if exclude == nil || c.inst != exclude.inst {
			return c
		}
	}
	return nil
}

// Remove drops a (broken) connection.
func (s *TCPServer) Remove(dep int, c *Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := s.conns[dep]
	for i, existing := range conns {
		if existing == c {
			s.conns[dep] = append(conns[:i], conns[i+1:]...)
			return
		}
	}
}

// ConnCount reports the number of connections held for dep (diagnostics).
func (s *TCPServer) ConnCount(dep int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns[dep])
}

// VM models one client virtual machine: a set of TCP servers shared by
// the clients running on it.
type VM struct {
	clk *clock.Sim
	cfg Config

	tel rpcTelemetry

	mu         sync.Mutex
	servers    []*TCPServer
	numClients int
	tracer     *trace.Tracer
}

// SetTracer installs the tracer inherited by clients created on this VM
// afterwards (nil disables tracing for new clients).
func (vm *VM) SetTracer(tr *trace.Tracer) {
	vm.mu.Lock()
	vm.tracer = tr
	vm.mu.Unlock()
}

// Tracer returns the VM's tracer (nil when tracing is off).
func (vm *VM) Tracer() *trace.Tracer {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.tracer
}

// NewVM creates a client VM.
func NewVM(clk *clock.Sim, cfg Config) *VM {
	return &VM{clk: clk, cfg: cfg, tel: newRPCTelemetry(cfg.Metrics)}
}

// assignServer places a new client on a TCP server, creating servers as
// needed ("at-most-n clients per TCP server", §3.2).
func (vm *VM) assignServer() *TCPServer {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	idx := vm.numClients / clientsPerTCPServer
	vm.numClients++
	for len(vm.servers) <= idx {
		vm.servers = append(vm.servers, NewTCPServer())
	}
	return vm.servers[idx]
}

// findConn looks for a live connection to dep: the preferred (own) server
// first, then the VM's other servers — the connection-sharing walk of
// Figure 4.
func (vm *VM) findConn(dep int, preferred *TCPServer, exclude *Conn) (*Conn, *TCPServer) {
	if preferred != nil {
		if c := preferred.ConnFor(dep, exclude); c != nil {
			return c, preferred
		}
	}
	vm.mu.Lock()
	servers := append([]*TCPServer(nil), vm.servers...)
	vm.mu.Unlock()
	for _, s := range servers {
		if s == preferred {
			continue
		}
		if c := s.ConnFor(dep, exclude); c != nil {
			return c, s
		}
	}
	return nil, nil
}

// Servers returns the VM's TCP servers (diagnostics).
func (vm *VM) Servers() []*TCPServer {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return append([]*TCPServer(nil), vm.servers...)
}

// ClientStats counts client-side RPC activity.
type ClientStats struct {
	TCPRPCs          uint64
	HTTPRPCs         uint64
	Retries          uint64
	Hedges           uint64
	ConnFailovers    uint64
	AntiThrashEvents uint64
}
