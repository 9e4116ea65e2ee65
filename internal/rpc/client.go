package rpc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/metrics"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/trace"
)

// Client is one λFS client. Clients are cheap; a workload driver creates
// one per simulated application thread. A Client may be used from a
// single goroutine (the usual driver pattern); its internals are
// nevertheless safe against the concurrency hedging introduces. It keeps a
// free list of hedge-eligible calls' state (hedged), so a read whose
// primary answers before the straggler threshold allocates nothing for the
// race it did not need.
type Client struct {
	// Tenant, when set before the first Do, tags every request with the
	// issuing tenant for the engines' admission gate; empty bypasses it.
	Tenant string

	id   string
	vm   *VM
	tcp  *TCPServer
	ring *partition.Ring
	inv  Invoker
	cfg  Config

	seq    atomic.Uint64
	window *metrics.MovingWindow
	tracer *trace.Tracer // nil when tracing is off
	tel    rpcTelemetry  // instruments are nil when telemetry is off

	mu              sync.Mutex
	rng             *rand.Rand
	antiThrashUntil time.Time
	atEngaged       bool      // anti-thrash mode entered and exit not yet emitted
	freeHedged      []*hedged // spent hedged calls, for reuse (callTCPHedged)

	stats struct {
		tcp, http, retries, hedges, failovers, antiThrash atomic.Uint64
	}
}

// NewClient creates a client on vm, routed by ring, invoking through inv.
func (vm *VM) NewClient(id string, ring *partition.Ring, inv Invoker) *Client {
	return &Client{
		id:     id,
		vm:     vm,
		tcp:    vm.assignServer(),
		ring:   ring,
		inv:    inv,
		cfg:    vm.cfg,
		window: metrics.NewMovingWindow(vm.cfg.LatencyWindow),
		tracer: vm.Tracer(),
		tel:    vm.tel,
		rng:    rand.New(rand.NewSource(clientSeed(vm.cfg.Seed, id))),
	}
}

// clientSeed derives a per-client stream from the run seed: mixing in the
// id hash decorrelates clients, while the plumbed seed keeps every stream
// a pure function of (Config.Seed, id) so -seed replays are exact.
func clientSeed(seed int64, id string) int64 {
	return int64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(hashID(id)))
}

func hashID(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		TCPRPCs:          c.stats.tcp.Load(),
		HTTPRPCs:         c.stats.http.Load(),
		Retries:          c.stats.retries.Load(),
		Hedges:           c.stats.hedges.Load(),
		ConnFailovers:    c.stats.failovers.Load(),
		AntiThrashEvents: c.stats.antiThrash.Load(),
	}
}

func (c *Client) randFloat() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

func (c *Client) inAntiThrash() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inAntiThrashLocked()
}

// inAntiThrashLocked reports the mode and lazily emits the exit event when
// the hold expired since the last check. The mode ends passively at
// antiThrashUntil, so the event is stamped with that (virtual) instant
// rather than the observation time. Caller holds c.mu.
func (c *Client) inAntiThrashLocked() bool {
	if c.vm.clk.Now().Before(c.antiThrashUntil) {
		return true
	}
	if c.atEngaged {
		c.atEngaged = false
		c.tracer.Emit(trace.Event{
			Type: trace.EventAntiThrashExit, Client: c.id, Time: c.antiThrashUntil,
		})
	}
	return false
}

func (c *Client) noteLatency(lat time.Duration) {
	mean := c.window.Mean()
	c.window.Add(lat)
	if c.cfg.AntiThrashThreshold <= 0 || c.window.Len() < c.cfg.LatencyWindow/2 || mean <= 0 {
		return
	}
	if float64(lat) > c.cfg.AntiThrashThreshold*float64(mean) && lat > c.cfg.StragglerFloor/2 {
		c.mu.Lock()
		// Flush a pending exit first so re-triggering after an expired hold
		// yields exit-then-enter in timestamp order.
		engaged := c.inAntiThrashLocked()
		now := c.vm.clk.Now()
		c.antiThrashUntil = now.Add(c.cfg.AntiThrashHold)
		if !engaged {
			c.atEngaged = true
			c.tracer.Emit(trace.Event{
				Type: trace.EventAntiThrashEnter, Client: c.id, Time: now,
				Dur:    c.cfg.AntiThrashHold,
				Detail: fmt.Sprintf("lat=%v mean=%v", lat, mean),
			})
		}
		c.mu.Unlock()
		c.stats.antiThrash.Add(1)
		c.tel.antiThrash.Inc()
	}
}

// Do executes one metadata operation end-to-end: route to the deployment
// the ring names for (op, path) — the hash of the parent directory, or for
// ls the directory's own hash, where its children are cached — pick TCP vs
// HTTP, retry transport failures with backoff, hedge stragglers. Semantic
// failures (ErrNotFound, ErrExists…) are returned inside the Response
// without retry.
func (c *Client) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	req := namespace.Request{
		Op: op, Path: path, Dest: dest, Tenant: c.Tenant,
		ClientID: c.id, Seq: c.seq.Add(1),
	}
	tc := c.tracer.StartTrace(op.String(), path, c.id)
	dep := c.ring.Route(op, path)
	start := c.vm.clk.Now()
	c.tel.inflight.Add(1)
	resp, err := c.attempt(tc, dep, req)
	c.tel.inflight.Add(-1)
	if err == nil {
		lat := c.vm.clk.Since(start)
		c.noteLatency(lat)
		c.tel.latency.Observe(lat)
	}
	if tc != nil {
		switch {
		case err != nil:
			tc.Finish(err.Error())
		case resp != nil:
			tc.Finish(resp.Err)
		default:
			tc.Finish("")
		}
	}
	return resp, err
}

// attempt runs the retry loop.
func (c *Client) attempt(tc *trace.Ctx, dep int, req namespace.Request) (*namespace.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.retries.Add(1)
			c.tel.retries.Inc()
			tc.Emit(trace.Event{
				Type: trace.EventRetry, Client: c.id, Deployment: dep,
				Detail: fmt.Sprintf("attempt=%d", attempt),
			})
			bsp := tc.Start(trace.KindBackoff)
			c.backoff(attempt)
			bsp.End()
		}
		conn, _ := c.vm.findConn(dep, c.tcp, nil)
		useHTTP := conn == nil
		// Randomized HTTP-TCP replacement keeps scaling signals flowing,
		// unless the client is in anti-thrashing mode (Appendix C).
		if !useHTTP && !c.inAntiThrash() && c.cfg.HTTPReplaceProb > 0 &&
			c.randFloat() < c.cfg.HTTPReplaceProb {
			useHTTP = true
			tc.Emit(trace.Event{Type: trace.EventHTTPReplace, Client: c.id, Deployment: dep})
		}
		var resp *namespace.Response
		var err error
		if useHTTP {
			resp, err = c.callHTTP(tc, dep, req)
		} else {
			resp, err = c.callTCPHedged(tc, dep, conn, req)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	// Retry budget exhausted: the operation times out at the client.
	c.tel.timeouts.Inc()
	return nil, lastErr
}

// backoff sleeps an exponentially growing, jittered delay (§3.2: avoid
// request storms on the FaaS platform).
func (c *Client) backoff(attempt int) {
	base := c.cfg.BackoffBase
	if base <= 0 {
		return
	}
	d := base << uint(attempt-1)
	d = min(d, backoffMax)
	// Full jitter.
	d = time.Duration(c.randFloat() * float64(d))
	c.vm.clk.Sleep(d)
}

// callHTTP performs the gateway-routed invocation; the serving NameNode
// establishes a TCP connection back to the client's server as a side
// effect (handled by the NameNode via Payload.ReplyTo).
func (c *Client) callHTTP(tc *trace.Ctx, dep int, req namespace.Request) (*namespace.Response, error) {
	c.stats.http.Add(1)
	c.tel.http.Inc()
	sp := tc.Start(trace.KindRPCHTTP)
	sp.SetDeployment(dep)
	// The request's bytes (plus the gateway envelope) go on the wire whether
	// or not the invocation succeeds; the response's only on success.
	reqBytes := reqWireBytes(req) + wireHTTPOverheadBytes
	sp.AddWireBytes(reqBytes)
	c.tel.wireBytes.Add(float64(reqBytes))
	// Re-point the request's context at the transport span so server-side
	// spans (gateway, cold start, engine, store) nest under it.
	req.TC = sp.Ctx()
	v, err := c.inv.Invoke(dep, Payload{Req: req, ReplyTo: c.tcp, TC: sp.Ctx()})
	if err != nil {
		sp.SetDetail(err.Error())
		sp.End()
		return nil, err
	}
	resp, ok := v.(*namespace.Response)
	if !ok || resp == nil {
		sp.End()
		return nil, namespace.ErrUnavailable
	}
	respBytes := respWireBytes(resp) + wireHTTPOverheadBytes
	sp.AddWireBytes(respBytes)
	c.tel.wireBytes.Add(float64(respBytes))
	sp.End()
	return resp, nil
}

// callTCP performs a raw TCP RPC on conn.
func (c *Client) callTCP(tc *trace.Ctx, conn *Conn, req namespace.Request) (*namespace.Response, error) {
	if h := c.cfg.OnTCPFault; h != nil {
		drop, delay := h(c.id, conn.inst.DeploymentIndex())
		if delay > 0 {
			c.vm.clk.Sleep(delay)
		}
		if drop {
			tc.Emit(trace.Event{
				Type: trace.EventChaosFault, Client: c.id,
				Deployment: conn.inst.DeploymentIndex(), Instance: conn.InstanceID(),
				Detail: "tcp drop",
			})
			return nil, namespace.ErrConnLost
		}
	}
	c.stats.tcp.Add(1)
	c.tel.tcp.Inc()
	sp := tc.Start(trace.KindRPCTCP)
	sp.SetDeployment(conn.inst.DeploymentIndex())
	sp.SetInstance(conn.InstanceID())
	// Request bytes bill up front (sent even when the connection then
	// drops); response bytes only once a response made it back.
	reqBytes := reqWireBytes(req)
	sp.AddWireBytes(reqBytes)
	c.tel.wireBytes.Add(float64(reqBytes))
	req.TC = sp.Ctx()
	nsp := sp.Ctx().Start(trace.KindRPCTCPNet)
	c.vm.clk.Sleep(c.cfg.TCPOneWay)
	nsp.End()
	v, err := conn.inst.Serve(func() any { return conn.srv.Execute(req) })
	if err != nil {
		sp.SetDetail("conn lost")
		sp.End()
		return nil, namespace.ErrConnLost
	}
	nsp = sp.Ctx().Start(trace.KindRPCTCPNet)
	c.vm.clk.Sleep(c.cfg.TCPOneWay)
	nsp.End()
	resp, ok := v.(*namespace.Response)
	if !ok || resp == nil {
		sp.End()
		return nil, namespace.ErrUnavailable
	}
	respBytes := respWireBytes(resp)
	sp.AddWireBytes(respBytes)
	c.tel.wireBytes.Add(float64(respBytes))
	sp.End()
	return resp, nil
}

// callTCPHedged wraps tcpWithFailover with straggler mitigation (Appendix
// B): when the RPC exceeds max(threshold × windowed mean, floor), a second
// attempt is fired at a different NameNode (or over HTTP) and the first
// response wins. Only read operations hedge — a hedged write could
// execute twice. Hedged or not, a primary whose connection is lost fails
// over to the VM's other live connections first.
func (c *Client) callTCPHedged(tc *trace.Ctx, dep int, conn *Conn, req namespace.Request) (*namespace.Response, error) {
	hedge := c.cfg.Hedging && !req.Op.IsWrite() && c.window.Len() >= c.cfg.LatencyWindow/2
	if !hedge {
		return c.tcpWithFailover(tc, dep, conn, req)
	}
	threshold := time.Duration(c.cfg.StragglerThreshold * float64(c.window.Mean()))
	if threshold < c.cfg.StragglerFloor {
		threshold = c.cfg.StragglerFloor
	}
	h := c.getHedged()
	h.tc, h.dep, h.conn, h.req = tc, dep, conn, req
	clock.Go(c.vm.clk, h.primary)
	results := h.results
	if primary, ok := results.RecvBy(clock.DeadlineIn(c.vm.clk, threshold)); ok {
		c.putHedged(h)
		return primary.resp, primary.err
	}
	// Straggler: hedge on a different instance, falling back to HTTP.
	c.stats.hedges.Add(1)
	c.tel.hedges.Inc()
	tc.Emit(trace.Event{
		Type: trace.EventHedgedRetry, Client: c.id, Deployment: dep,
		Instance: conn.InstanceID(), Dur: threshold,
		Detail: fmt.Sprintf("threshold=%v", threshold),
	})
	clock.Go(c.vm.clk, func() {
		if alt, _ := c.vm.findConn(dep, c.tcp, conn); alt != nil {
			resp, err := c.callTCP(tc, alt, req)
			results.Send(hedgeResult{resp, err})
			return
		}
		resp, err := c.callHTTP(tc, dep, req)
		results.Send(hedgeResult{resp, err})
	})
	var firstErr error
	for i := 0; i < 2; i++ {
		r := results.Recv()
		if r.err == nil {
			return r.resp, nil
		}
		if firstErr == nil {
			firstErr = r.err
		}
	}
	c.connBroken(dep, conn)
	return nil, firstErr
}

// hedged is one hedge-eligible call's state: the mailbox the racers answer
// on and what the primary sends. A call whose primary answered before the
// threshold gives it back to its client's free list: exactly one value was
// sent, by the primary, and under the baton the primary has returned by the
// time the caller runs again, so nothing can reach the mailbox any more. A
// call that hedged leaves it to the two racers, either of which may still
// send to it.
type hedged struct {
	c       *Client
	results *clock.Mailbox[hedgeResult]
	primary func() // h.callPrimary, bound once

	tc   *trace.Ctx
	dep  int
	conn *Conn
	req  namespace.Request
}

type hedgeResult struct {
	resp *namespace.Response
	err  error
}

func (h *hedged) callPrimary() {
	resp, err := h.c.tcpWithFailover(h.tc, h.dep, h.conn, h.req)
	h.results.Send(hedgeResult{resp, err})
}

// getHedged returns a spent hedged call of c's, or a new one.
func (c *Client) getHedged() *hedged {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.freeHedged); n > 0 {
		h := c.freeHedged[n-1]
		c.freeHedged = c.freeHedged[:n-1]
		return h
	}
	h := &hedged{c: c, results: clock.NewMailbox[hedgeResult](c.vm.clk)}
	h.primary = h.callPrimary
	return h
}

// putHedged gives back a call whose primary answered before the threshold.
func (c *Client) putHedged(h *hedged) {
	h.tc, h.dep, h.conn, h.req = nil, 0, nil, namespace.Request{}
	c.mu.Lock()
	c.freeHedged = append(c.freeHedged, h)
	c.mu.Unlock()
}

// tcpWithFailover runs one TCP RPC, failing over across the VM's other
// live connections before surfacing the error (the reconnection walk of
// §3.2).
func (c *Client) tcpWithFailover(tc *trace.Ctx, dep int, conn *Conn, req namespace.Request) (*namespace.Response, error) {
	resp, err := c.callTCP(tc, conn, req)
	if err == nil {
		return resp, nil
	}
	c.connBroken(dep, conn)
	c.stats.failovers.Add(1)
	c.tel.failovers.Inc()
	if alt, _ := c.vm.findConn(dep, c.tcp, conn); alt != nil {
		if resp, err2 := c.callTCP(tc, alt, req); err2 == nil {
			return resp, nil
		}
		c.connBroken(dep, alt)
	}
	return nil, err
}

// connBroken prunes a dead connection from every server on the VM.
func (c *Client) connBroken(dep int, conn *Conn) {
	for _, s := range c.vm.Servers() {
		s.Remove(dep, conn)
	}
}
