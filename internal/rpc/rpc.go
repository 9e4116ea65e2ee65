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
// HTTP-TCP replacement mechanism of §3.4 (a small probability converts a
// would-be TCP RPC into an HTTP RPC so load stays visible), shares TCP
// connections between co-located clients (Figure 4), retries with
// exponential backoff and jitter, hedges stragglers (Appendix B), and
// falls into anti-thrashing mode under latency collapse (Appendix C).
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
// adapts the FaaS platform to it.
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
func (p Payload) TraceCtx() *trace.Ctx { return p.TC }

// Config tunes the RPC fabric.
type Config struct {
	// TCPOneWay is the one-way client↔NameNode latency of the direct TCP
	// path.
	TCPOneWay time.Duration
	// HTTPReplaceProb is the probability of replacing a TCP RPC with an
	// HTTP RPC (§3.4's fine-grained auto-scaling control; ≤1% works best
	// per the paper).
	HTTPReplaceProb float64
	// ClientsPerTCPServer is the at-most-n clients assigned per TCP
	// server on a VM.
	ClientsPerTCPServer int

	// Straggler mitigation (Appendix B).
	Hedging            bool
	StragglerThreshold float64       // multiple of the moving-average latency
	StragglerFloor     time.Duration // never hedge below this latency
	LatencyWindow      int           // moving window size

	// Anti-thrashing (Appendix C).
	AntiThrashThreshold float64       // T: latency multiple that triggers the mode
	AntiThrashHold      time.Duration // how long the client stays in the mode

	// Retry policy for transport-level failures: the backoff before retry
	// k is jittered over BackoffBase·2^(k-1), capped at backoffMax.
	BackoffBase time.Duration
	MaxAttempts int

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

// DefaultConfig mirrors the paper's settings: ~0.3 ms one-way TCP,
// replacement probability under 1%, straggler threshold 10× (≥50 ms),
// anti-thrashing threshold in the 2–3 range.
func DefaultConfig() Config {
	return Config{
		TCPOneWay:           300 * time.Microsecond,
		HTTPReplaceProb:     0.005,
		ClientsPerTCPServer: 128,
		Hedging:             true,
		StragglerThreshold:  10,
		StragglerFloor:      50 * time.Millisecond,
		LatencyWindow:       64,
		AntiThrashThreshold: 2.5,
		AntiThrashHold:      5 * time.Second,
		BackoffBase:         25 * time.Millisecond,
		MaxAttempts:         10,
	}
}

// backoffMax caps one retry backoff before jitter.
const backoffMax = 2 * time.Second

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
	idx := vm.numClients / vm.cfg.ClientsPerTCPServer
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
