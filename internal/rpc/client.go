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
// one per simulated application thread. A Client serves one caller at a
// time: a Do that starts while another Do of the same client runs panics.
// Its internals are nevertheless safe against the concurrency hedging and
// racing introduce. Every Do takes a call record (call) off the client's
// free list: the reply storage its racers write into, one per racer, and
// the state of a race when there is one. A reply a Do returns lives in its
// record, so it is valid until the client's next Do, and a warm client
// allocates nothing for a call's state or its reply, raced or not.
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

	busy atomic.Bool // a Do is running

	mu              sync.Mutex
	rng             *rand.Rand
	antiThrashUntil time.Time
	atEngaged       bool          // anti-thrash mode entered and exit not yet emitted
	freeCalls       []*call       // ended call records, for reuse (nextCall)
	held            *call         // the last Do's record, whose reply the caller holds
	jitter          atomic.Uint64 // splitmix64 state of the TCP latency draws

	stats struct {
		tcp, http, retries, hedges, failovers, antiThrash atomic.Uint64
	}
}

// NewClient creates a client on vm, routed by ring, invoking through inv.
func (vm *VM) NewClient(id string, ring *partition.Ring, inv Invoker) *Client {
	seed := clientSeed(vm.cfg.Seed, id)
	c := &Client{
		id:     id,
		vm:     vm,
		tcp:    vm.assignServer(),
		ring:   ring,
		inv:    inv,
		cfg:    vm.cfg,
		window: metrics.NewMovingWindow(latencyWindow),
		tracer: vm.Tracer(),
		tel:    vm.tel,
		rng:    rand.New(rand.NewSource(seed)),
	}
	c.jitter.Store(uint64(seed))
	return c
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

// tcpOneWay draws one TCP leg's latency, TCPOneWay·(1 ± tcpJitter). The
// draws are splitmix64 over the client's own state, not its rng, so they
// move none of the replacement and backoff draws.
func (c *Client) tcpOneWay() time.Duration {
	d := c.cfg.TCPOneWay
	z := c.jitter.Add(0x9e3779b97f4a7c15)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11)/(1<<53)*2 - 1 // uniform on [-1, 1)
	return d + time.Duration(u*tcpJitter*float64(d))
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
	if c.window.Len() < latencyWindow/2 || mean <= 0 {
		return
	}
	if float64(lat) > antiThrashThreshold*float64(mean) && lat > stragglerFloor/2 {
		c.mu.Lock()
		// Flush a pending exit first so re-triggering after an expired hold
		// yields exit-then-enter in timestamp order.
		engaged := c.inAntiThrashLocked()
		now := c.vm.clk.Now()
		c.antiThrashUntil = now.Add(AntiThrashHold)
		if !engaged {
			c.atEngaged = true
			c.tracer.Emit(trace.Event{
				Type: trace.EventAntiThrashEnter, Client: c.id, Time: now,
				Dur:    AntiThrashHold,
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
// HTTP (racing the two for a replaced request), retry transport failures
// with backoff, hedge stragglers. Semantic
// failures (ErrNotFound, ErrExists…) are returned inside the Response
// without retry. A raced delete or mv that finds a directory is declined
// (namespace.ErrRaceDeclined) and re-issued at once under a fresh Seq,
// neither raced nor replaced, so the subtree protocol never races.
//
// The reply is written into storage of the client's (namespace.Reply) and
// is valid until the client's next Do. A Do that starts while another Do
// of the client runs panics: a Client serves one caller at a time.
func (c *Client) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	if !c.busy.CompareAndSwap(false, true) {
		panic("rpc: client " + c.id + ": Do called while another Do of the client runs; a Client serves one caller at a time")
	}
	defer c.busy.Store(false)
	req := namespace.Request{
		Op: op, Path: path, Dest: dest, Tenant: c.Tenant,
		ClientID: c.id, Seq: c.seq.Add(1),
	}
	tc := c.tracer.StartTrace(op.String(), path, c.id)
	dep := c.ring.Route(op, path)
	start := c.vm.clk.Now()
	c.tel.inflight.Add(1)
	resp, err := c.attempt(c.nextCall(), tc, dep, req, true)
	if err == nil && resp.Err == errDeclined {
		// The declined copy's twin may still be out, writing into the
		// record: the re-issue takes a record of its own.
		req.Seq = c.seq.Add(1)
		resp, err = c.attempt(c.nextCall(), tc, dep, req, false)
	}
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

// errDeclined is namespace.ErrRaceDeclined's wire text.
var errDeclined = namespace.ToWire(namespace.ErrRaceDeclined)

// attempt runs the retry loop on call record k; replace allows §3.4's
// replacement. An attempt starts only once every racer of the one before
// has answered, so each reuses k.
func (c *Client) attempt(k *call, tc *trace.Ctx, dep int, req namespace.Request, replace bool) (*namespace.Response, error) {
	req.Reply = &k.replies[0]
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
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
		// Randomized HTTP-TCP replacement keeps scaling signals flowing,
		// unless the client is in anti-thrashing mode (Appendix C). A
		// replaced request races its invocation against the TCP call. A
		// replaced write is marked Raced for good: every copy of its Seq,
		// retries included, goes through its client's result row, so it
		// executes once (beyond the paper, which detours the write
		// through the gateway alone).
		replaced := conn != nil && !c.inAntiThrash() && replace && c.cfg.HTTPReplaceProb > 0 &&
			c.randFloat() < c.cfg.HTTPReplaceProb
		if replaced {
			tc.Emit(trace.Event{Type: trace.EventHTTPReplace, Client: c.id, Deployment: dep})
			req.Raced = req.Op.IsWrite()
		}
		var resp *namespace.Response
		var err error
		if conn == nil {
			resp, err = c.callHTTP(&k.payloads[0], tc, dep, req)
		} else {
			resp, err = c.callTCPHedged(k, tc, dep, conn, req, replaced)
		}
		if err == nil && req.Raced {
			err = racedFailure(resp)
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
	d := backoffBase << uint(attempt-1)
	d = min(d, backoffMax)
	// Full jitter.
	d = time.Duration(c.randFloat() * float64(d))
	c.vm.clk.Sleep(d)
}

// callHTTP performs the gateway-routed invocation, its payload written
// into p; the serving NameNode establishes a TCP connection back to the
// client's server as a side effect (handled by the NameNode via
// Payload.ReplyTo).
func (c *Client) callHTTP(p *Payload, tc *trace.Ctx, dep int, req namespace.Request) (*namespace.Response, error) {
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
	*p = Payload{Req: req, ReplyTo: c.tcp, TC: sp.Ctx()}
	v, err := c.inv.Invoke(dep, p)
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
	c.vm.clk.Sleep(c.tcpOneWay())
	nsp.End()
	v, err := conn.inst.Serve(func() any { return conn.srv.Execute(req) })
	if err != nil {
		sp.SetDetail("conn lost")
		sp.End()
		return nil, namespace.ErrConnLost
	}
	nsp = sp.Ctx().Start(trace.KindRPCTCPNet)
	c.vm.clk.Sleep(c.tcpOneWay())
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

// racedFailure is the transport-class failure a raced write's reply
// carries, nil when the reply is final: a success, an outcome
// (namespace.IsOutcome) or a throttled reply, which ran nothing. Any other
// error leaves the outcome unknown (an aborted transaction recorded
// nothing, a stale twin found a later Seq), so the client retries, and the
// retry's row check answers what ran, if anything did.
func racedFailure(resp *namespace.Response) error {
	err := resp.Error()
	if err == nil || namespace.IsOutcome(err) || err == namespace.ErrThrottled {
		return nil
	}
	return err
}

// callTCPHedged wraps tcpWithFailover with straggler mitigation (Appendix
// B): when the RPC exceeds max(threshold × windowed mean, floor), a second
// attempt is fired at a different NameNode (or over HTTP) and the first
// response wins. Only read operations hedge — a hedged write could
// execute twice. Hedged or not, a primary whose connection is lost fails
// over to the VM's other live connections first.
//
// A replaced request (race) is the same hedge fired at once, with the HTTP
// invocation as its second racer: the platform sees the invocation, the
// client waits only for the first success, or for the other racer's
// answer when one fails. A replaced write may race because it is Raced:
// both copies check its client's result row, so the write runs once and
// both answer what it did.
//
// The racers run on record k: the primary writes its reply into
// k.replies[0], the second racer into k.replies[1].
func (c *Client) callTCPHedged(k *call, tc *trace.Ctx, dep int, conn *Conn, req namespace.Request, race bool) (*namespace.Response, error) {
	hedge := !req.Op.IsWrite() && c.window.Len() >= latencyWindow/2
	if !hedge && !race {
		return c.tcpWithFailover(tc, dep, conn, req)
	}
	k.tc, k.dep, k.conn, k.req, k.race = tc, dep, conn, req, race
	k.out, k.sent, k.waiting = 1, 0, true
	clock.Go(c.vm.clk, k.primary)
	if !race {
		threshold := max(time.Duration(stragglerThreshold*float64(c.window.Mean())), stragglerFloor)
		if primary, ok := k.results.RecvBy(clock.DeadlineIn(c.vm.clk, threshold)); ok {
			k.settle(1)
			return primary.resp, primary.err
		}
		c.stats.hedges.Add(1)
		c.tel.hedges.Inc()
		tc.Emit(trace.Event{
			Type: trace.EventHedgedRetry, Client: c.id, Deployment: dep,
			Instance: conn.InstanceID(), Dur: threshold,
			Detail: fmt.Sprintf("threshold=%v", threshold),
		})
	}
	c.mu.Lock()
	k.out++
	c.mu.Unlock()
	clock.Go(c.vm.clk, k.hedge)
	return k.wait(2)
}

// call is one Do's record: the reply storage of its racers, one per racer,
// and the state of a race, when the call has one: the mailbox the racers
// answer on and what they send. Racers answer only while the caller waits;
// the caller, once it has its answer, drains what was sent and not taken.
// The record goes back to the client's free list once the caller's hold on
// its reply ends, when the client's next Do starts (nextCall), and every
// racer has finished, whichever comes last: a loser still out keeps it from
// reuse, so its late reply can never reach a later call or the storage of
// a reply the caller holds. All counts are guarded by c.mu.
type call struct {
	c       *Client
	results *clock.Mailbox[hedgeResult]
	// The racers, bound once: the TCP primary and the second racer.
	primary, hedge func()
	// replies is the storage the racers write into: the primary's (and a
	// call's with no race) first, the second racer's after it.
	replies [2]namespace.Reply
	// payloads is each racer's invocation payload, laid out as replies;
	// an invocation drops its payload before it returns (rpc.Invoker).
	payloads [2]Payload

	tc   *trace.Ctx
	dep  int
	conn *Conn
	req  namespace.Request
	race bool // the second racer is a replaced request's invocation

	out     int  // racers not yet finished
	sent    int  // answers sent while the caller waited
	waiting bool // the caller still takes answers
}

type hedgeResult struct {
	resp *namespace.Response
	err  error
}

func (k *call) callPrimary() { k.finish(k.c.tcpWithFailover(k.tc, k.dep, k.conn, k.req)) }

// callHedge runs the second racer: a replaced request's invocation, or a
// straggler's hedge on a different instance, falling back to HTTP.
func (k *call) callHedge() {
	c := k.c
	req := k.req
	req.Reply = &k.replies[1]
	if !k.race {
		if alt, _ := c.vm.findConn(k.dep, c.tcp, k.conn); alt != nil {
			k.finish(c.callTCP(k.tc, alt, req))
			return
		}
	}
	k.finish(c.callHTTP(&k.payloads[1], k.tc, k.dep, req))
}

// finish ends one racer: it answers if the caller still waits, and frees
// the record if it is the last one out and the caller's hold has ended.
func (k *call) finish(resp *namespace.Response, err error) {
	c := k.c
	c.mu.Lock()
	defer c.mu.Unlock()
	k.out--
	if k.waiting {
		k.sent++
		k.results.Send(hedgeResult{resp, err})
	}
	if k.out == 0 && c.held != k {
		c.freeLocked(k)
	}
}

// wait takes the answers of n racers until one succeeds, or all failed and
// the gravest failure, the first of its rank, is returned (raceRank).
func (k *call) wait(n int) (*namespace.Response, error) {
	var failed hedgeResult
	worst := -1
	for got := 1; got <= n; got++ {
		r := k.results.Recv()
		rank := k.raceRank(r)
		if rank == 0 {
			k.settle(got)
			return r.resp, nil
		}
		if rank > worst {
			failed, worst = r, rank
		}
	}
	k.settle(n)
	return failed.resp, failed.err
}

// raceRank ranks a racer's answer: 0 an answer to take; 1 a raced write's
// reply that is neither a success nor an outcome (namespace.IsOutcome),
// whose racer ran nothing, so the other racer's answer is awaited; 2 a
// transport failure, whose racer may have run the write.
func (k *call) raceRank(r hedgeResult) int {
	switch {
	case r.err != nil:
		return 2
	case k.req.Raced && r.resp.Err != "" && !namespace.IsOutcome(r.resp.Error()):
		return 1
	}
	return 0
}

// settle ends the caller's wait after it took got answers: the answers
// sent and not taken are queued on the mailbox, so draining them does not
// park. The record stays the caller's: its reply is still held.
func (k *call) settle(got int) {
	c := k.c
	c.mu.Lock()
	k.waiting = false
	unread := k.sent - got
	c.mu.Unlock()
	for ; unread > 0; unread-- {
		k.results.Recv()
	}
}

// nextCall ends the caller's hold on the last call's reply, freeing its
// record unless a racer is still out, and returns a record for the next
// call: an ended one of c's, or a new one.
func (c *Client) nextCall() *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k := c.held; k != nil && k.out == 0 {
		c.freeLocked(k)
	}
	var k *call
	if n := len(c.freeCalls); n > 0 {
		k = c.freeCalls[n-1]
		c.freeCalls = c.freeCalls[:n-1]
	} else {
		k = &call{c: c, results: clock.NewMailbox[hedgeResult](c.vm.clk)}
		k.primary, k.hedge = k.callPrimary, k.callHedge
	}
	c.held = k
	return k
}

// freeLocked gives back a record that neither the caller nor a racer
// holds. Caller holds c.mu.
func (c *Client) freeLocked(k *call) {
	k.tc, k.dep, k.conn, k.req = nil, 0, nil, namespace.Request{}
	k.payloads = [2]Payload{}
	c.freeCalls = append(c.freeCalls, k)
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
