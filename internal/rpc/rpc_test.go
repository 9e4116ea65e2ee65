package rpc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/simtest"
	"lambdafs/internal/trace"
)

// testNN is a minimal NameNode: it implements faas.App for the HTTP path
// and Server for the TCP path, and connects back to the client's TCP
// server exactly like the real NameNode does. Its response's ID is the
// request's Seq, so a test can tell whose response a call got, and it is
// written into the request's reply storage, as the engine writes it.
type testNN struct {
	inst  *faas.Instance
	st    *testStore
	execs atomic.Int64
	block *clock.Event // when non-nil, TCP Execute parks on it once
	used  atomic.Bool
	conn  atomic.Pointer[Conn] // the one connection it offers back
	exec  time.Duration        // service time, spent inside an engine.exec span
	cpu   time.Duration        // instance CPU a TCP read charges, as the engine does
	clk   *clock.Sim
}

func (n *testNN) Execute(req namespace.Request) *namespace.Response {
	if req.Decided() { // as the engine: a decided race's copy runs nothing
		return nil
	}
	n.execs.Add(1)
	if n.exec > 0 {
		sp := req.TC.Start(trace.KindEngineExec)
		n.clk.Sleep(n.exec)
		sp.End()
	}
	if req.Op.IsWrite() {
		return n.st.write(req, n.inst.ID())
	}
	if req.Op == namespace.OpRead {
		n.inst.AcquireCPU(n.cpu)
	}
	// Stall the first read op only (hedging tests): connection
	// establishment and stat ops must complete normally.
	if n.block != nil && req.Op == namespace.OpRead && n.used.CompareAndSwap(false, true) {
		n.block.Wait()
	}
	return replyTo(req, namespace.Response{ID: namespace.INodeID(req.Seq), ServedBy: n.inst.ID()})
}

// replyTo writes resp into req's reply storage and returns it; a request
// without storage gets fresh storage. An ls lists lsEntries entries, each
// with the request's Seq for its ID, into the storage's room, as the
// engine lists a directory.
func replyTo(req namespace.Request, resp namespace.Response) *namespace.Response {
	r := req.Reply
	if r == nil {
		r = new(namespace.Reply)
	}
	if req.Op == namespace.OpLs {
		resp.Entries = r.EntryRoom(lsEntries)
		for i := range resp.Entries {
			resp.Entries[i] = namespace.DirEntry{Name: "e", ID: namespace.INodeID(req.Seq)}
		}
	}
	return r.Set(resp)
}

// lsEntries is the length of a test NameNode's listings.
const lsEntries = 3

func (n *testNN) HandleInvoke(payload any) any {
	p, ok := payload.(*Payload)
	if !ok {
		return nil
	}
	resp := n.Execute(p.Req)
	if p.ReplyTo != nil {
		conn := n.conn.Load()
		if conn == nil {
			conn = NewConn(n.inst, n)
			n.conn.Store(conn)
		}
		p.ReplyTo.Offer(n.inst.DeploymentIndex(), conn)
	}
	return resp
}

func (n *testNN) Shutdown(bool) {}

// testStore is what the test NameNodes of a harness share: the files their
// creates made, and each client's result row, which a raced write checks
// before it acts, as the engine's transactions do: a copy of the row's Seq
// answers from it, one older than the row's is stale.
type testStore struct {
	mu      sync.Mutex
	files   map[string]int // path → creates that acted on it
	rows    map[string]testRow
	replays int    // raced writes answered from their row
	fail    string // when set, the next write answers this error, unrecorded
	dirs    bool   // deletes find a directory: a raced one is declined
}

func (s *testStore) write(req namespace.Request, servedBy string) *namespace.Response {
	resp := replyTo(req, namespace.Response{ID: namespace.INodeID(req.Seq), ServedBy: servedBy})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != "" {
		resp.Err, s.fail = s.fail, ""
		return resp
	}
	if req.Raced {
		row, ok := s.rows[req.ClientID]
		switch {
		case ok && row.seq == req.Seq:
			s.replays++
			resp.Err = row.err
			return resp
		case ok && row.seq > req.Seq:
			resp.Err = namespace.ToWire(namespace.ErrStale)
			return resp
		}
		if s.dirs && req.Op == namespace.OpDelete {
			resp.Err = namespace.ToWire(namespace.ErrRaceDeclined)
		}
		s.rows[req.ClientID] = testRow{req.Seq, resp.Err}
		if resp.Err != "" {
			return resp
		}
	}
	if req.Op == namespace.OpCreate {
		s.files[req.Path]++
	}
	return resp
}

// testRow is a client's result row: its latest raced Seq and the error
// that write answered.
type testRow struct {
	seq uint64
	err string
}

// creates returns how many creates acted on path, and how many raced
// writes were answered from their row.
func (s *testStore) creates(path string) (n, replays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[path], s.replays
}

type platformInvoker struct{ p *faas.Platform }

func (pi platformInvoker) Invoke(dep int, payload any) (any, error) {
	return pi.p.Invoke(dep, payload)
}

type harness struct {
	clk  *clock.Sim
	p    *faas.Platform
	ring *partition.Ring
	vm   *VM
	st   *testStore
	nns  []*testNN
	mu   sync.Mutex
}

func newHarness(t *testing.T, clk *clock.Sim, deployments int, rpcCfg Config) *harness {
	t.Helper()
	return newHarnessOn(t, clk, deployments, rpcCfg, fastFaasCfg())
}

// fastFaasCfg is a platform with no gateway hop, no cold start and no
// reclaimer, so a test's latencies are its own.
func fastFaasCfg() faas.Config {
	fcfg := faas.DefaultConfig()
	fcfg.ColdStart = 0
	fcfg.GatewayLatency = 0
	fcfg.IdleReclaim = 0
	return fcfg
}

// newHarnessOn is newHarness on a platform configured by fcfg.
func newHarnessOn(t *testing.T, clk *clock.Sim, deployments int, rpcCfg Config, fcfg faas.Config) *harness {
	t.Helper()
	p := faas.New(clk, fcfg)
	t.Cleanup(p.Close)
	h := &harness{clk: clk, p: p, ring: partition.NewRing(deployments, 0), vm: NewVM(clk, rpcCfg),
		st: &testStore{files: make(map[string]int), rows: make(map[string]testRow)}}
	for i := 0; i < deployments; i++ {
		p.Register("nn", func(inst *faas.Instance) faas.App {
			nn := &testNN{inst: inst, st: h.st, clk: clk}
			h.mu.Lock()
			h.nns = append(h.nns, nn)
			h.mu.Unlock()
			return nn
		}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8})
	}
	return h
}

// testCfg is DefaultConfig with the TCP path's delay and replacement
// off: tests switch on what they time, and time it exactly. Hedging arms
// only once a client's latency window is half full (armHedging).
func testCfg() Config {
	cfg := DefaultConfig()
	cfg.TCPOneWay = 0
	cfg.HTTPReplaceProb = 0
	return cfg
}

// legs returns the total of the next n TCP legs c will draw, without
// drawing them: a test that times TCP calls exactly adds their legs up.
func legs(c *Client, n int) time.Duration {
	state := c.jitter.Load()
	defer c.jitter.Store(state)
	var sum time.Duration
	for range n {
		sum += c.tcpOneWay()
	}
	return sum
}

// armHedging fills half of c's latency window with lat, the fewest
// samples with which a read hedges (and a slow op can enter
// anti-thrashing mode).
func armHedging(c *Client, lat time.Duration) {
	for range latencyWindow / 2 {
		c.window.Add(lat)
	}
}

// traceSpans has c trace its calls on a fresh tracer, and fails the test
// if a span is still open when it ends: every path of a call, its failures
// included, closes the spans it opened.
func traceSpans(t *testing.T, clk *clock.Sim, c *Client) {
	tr := trace.New(clk, trace.Config{})
	c.tracer = tr
	t.Cleanup(func() {
		if n := tr.OpenSpans(); n != 0 {
			t.Errorf("%d span(s) left open", n)
		}
	})
}

// halfSource makes every draw of a client's rng 0.5: each request is
// replaced when HTTPReplaceProb exceeds it, and the full-jitter backoff
// before retry k is exactly half of backoffBase·2^(k-1).
type halfSource struct{}

func (halfSource) Int63() int64 { return 1 << 62 }
func (halfSource) Seed(int64)   {}

func TestFirstOpHTTPThenTCP(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		resp, err := c.Do(namespace.OpStat, "/a", "")
		if err != nil || !resp.OK() {
			t.Fatalf("first op: %v %v", resp, err)
		}
		st := c.Stats()
		if st.HTTPRPCs != 1 || st.TCPRPCs != 0 {
			t.Fatalf("first op stats: %+v", st)
		}
		// The NameNode connected back; second op goes TCP.
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		st = c.Stats()
		if st.TCPRPCs != 1 {
			t.Fatalf("second op did not use TCP: %+v", st)
		}
	})
}

// replaceHarness is a one-deployment harness whose client replaces every
// request once it holds a connection, on a platform whose gateway hop
// (5ms each way) is far slower than the TCP path (1ms ± 5% each way), so
// a call's latency tells which transport answered it. The client's rng
// draws 0.5 every time (halfSource), so its first retry backs off 12.5ms.
// The first op, which has no connection to replace, establishes one over
// HTTP.
func replaceHarness(t *testing.T, clk *clock.Sim, inv func(Invoker) Invoker, cfg Config) (*harness, *Client) {
	cfg.HTTPReplaceProb = 1
	cfg.TCPOneWay = time.Millisecond
	fcfg := fastFaasCfg()
	fcfg.GatewayLatency = 5 * time.Millisecond
	h := newHarnessOn(t, clk, 1, cfg, fcfg)
	var invoker Invoker = platformInvoker{h.p}
	if inv != nil {
		invoker = inv(invoker)
	}
	c := h.vm.NewClient("c1", h.ring, invoker)
	c.rng = rand.New(halfSource{})
	if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
		t.Fatal(err)
	}
	return h, c
}

// halfBackoff is the backoff before a replaceHarness client's first retry.
const halfBackoff = backoffBase / 2

// TestReplacementForcesHTTP: a replaced request always makes its HTTP
// invocation (§3.4's scaling signal). It also makes its TCP call at the
// same instant and answers at TCP latency. The invocation, whose race is
// decided by the time it reaches its NameNode, runs nothing there: each
// op executes once, and the raced create acts once with no copy answered
// from its row.
func TestReplacementForcesHTTP(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h, c := replaceHarness(t, clk, nil, testCfg())
		traceSpans(t, clk, c)
		nn := h.nns[0]
		for _, tc := range []struct {
			op        namespace.OpType
			tcp, http uint64
		}{
			{namespace.OpRead, 1, 1},
			{namespace.OpStat, 1, 1},
			{namespace.OpLs, 1, 1},
			{namespace.OpCreate, 1, 1},
		} {
			before, execs := c.Stats(), nn.execs.Load()
			start, want := clk.Now(), legs(c, 2)
			resp, err := c.Do(tc.op, "/a", "")
			if err != nil || !resp.OK() {
				t.Fatalf("replaced %v: %v %v", tc.op, resp, err)
			}
			if took := clk.Since(start); took != want {
				t.Errorf("replaced %v answered after %v, want the TCP call's two legs %v", tc.op, took, want)
			}
			clk.Sleep(20 * time.Millisecond) // let a losing invocation finish
			st := c.Stats()
			if st.TCPRPCs-before.TCPRPCs != tc.tcp || st.HTTPRPCs-before.HTTPRPCs != tc.http {
				t.Errorf("replaced %v: %d TCP calls and %d HTTP invocations, want %d and %d",
					tc.op, st.TCPRPCs-before.TCPRPCs, st.HTTPRPCs-before.HTTPRPCs, tc.tcp, tc.http)
			}
			if got, want := nn.execs.Load()-execs, int64(tc.tcp); got != want {
				t.Errorf("replaced %v executed %d times, want %d", tc.op, got, want)
			}
		}
		if n, replays := h.st.creates("/a"); n != 1 || replays != 0 {
			t.Errorf("the raced create acted %d times, %d copies replayed; want 1 and 0", n, replays)
		}
	})
}

// TestReplacedReadRaceFailures: when one racer of a replaced read fails,
// the other's answer is the read's, with no retry; when both fail, the
// retry loop runs.
func TestReplacedReadRaceFailures(t *testing.T) {
	for _, tc := range []struct {
		name          string
		drop, reject  bool
		took          time.Duration
		tcpLegs       int // TCP legs the read waits for, beyond took
		retries, http uint64
	}{
		// The TCP call loses its connection at once; the invocation answers
		// after two gateway hops.
		{"tcp drops", true, false, 10 * time.Millisecond, 0, 0, 1},
		// The invocation is rejected at once; the TCP call answers.
		{"http rejected", false, true, 0, 2, 0, 1},
		// Both fail at once; the retry backs off, finds no connection left
		// and invokes over HTTP.
		{"both fail", true, true, halfBackoff + 10*time.Millisecond, 0, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				var drop atomic.Bool
				cfg := testCfg()
				cfg.OnTCPFault = func(string, int) (bool, time.Duration) {
					return drop.CompareAndSwap(true, false), 0
				}
				var flaky *flakyInvoker
				_, c := replaceHarness(t, clk, func(inner Invoker) Invoker {
					flaky = &flakyInvoker{inner: inner}
					return flaky
				}, cfg)
				traceSpans(t, clk, c)
				drop.Store(tc.drop)
				if tc.reject {
					flaky.failures = 1
				}
				before := c.Stats()
				start, want := clk.Now(), tc.took+legs(c, tc.tcpLegs)
				resp, err := c.Do(namespace.OpRead, "/a", "")
				if err != nil || !resp.OK() {
					t.Fatalf("read: %v %v", resp, err)
				}
				if seq := c.seq.Load(); resp.ID != namespace.INodeID(seq) {
					t.Errorf("read (seq %d) got the response to seq %d", seq, resp.ID)
				}
				if took := clk.Since(start); took != want {
					t.Errorf("read answered after %v, want %v", took, want)
				}
				st := c.Stats()
				if st.Retries-before.Retries != tc.retries || st.HTTPRPCs-before.HTTPRPCs != tc.http {
					t.Errorf("%d retries and %d HTTP invocations, want %d and %d",
						st.Retries-before.Retries, st.HTTPRPCs-before.HTTPRPCs, tc.retries, tc.http)
				}
			})
		})
	}
}

// TestReplacedWriteRaceFailures mirrors the read test for a raced create:
// when one racer fails, the other's answer is the write's; a reply whose
// outcome is unknown counts as a failure; when both racers fail, the retry
// keeps Raced, and its copies answer from the row what the first execution
// did. The create acts once in every case.
func TestReplacedWriteRaceFailures(t *testing.T) {
	for _, tc := range []struct {
		name          string
		drop, reject  bool
		lose          bool   // the invocation runs, and its answer is lost
		abort         string // the TCP racer's reply: an aborted transaction
		took          time.Duration
		tcpLegs       int // TCP legs the create waits for, beyond took
		retries, http uint64
		replays       int
	}{
		// The TCP call loses its connection at once; the invocation answers
		// after two gateway hops.
		{name: "tcp drops", drop: true, took: 10 * time.Millisecond, http: 1},
		// The invocation is rejected at once; the TCP call answers.
		{name: "http rejected", reject: true, tcpLegs: 2, http: 1},
		// The TCP racer's transaction aborted and recorded nothing: the
		// client waits for the invocation, which acts.
		{name: "tcp aborted", abort: "store: lock wait timeout", took: 10 * time.Millisecond, http: 1},
		// The TCP call drops and the invocation runs the write, then loses
		// its answer. The retry backs off, then races again over the
		// connection the invocation's NameNode offered back. Its TCP copy
		// answers from the row, which decides the race, so its invocation
		// runs nothing.
		{name: "both fail", drop: true, lose: true, took: 10*time.Millisecond + halfBackoff, tcpLegs: 2, retries: 1, http: 2, replays: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				var drop atomic.Bool
				cfg := testCfg()
				cfg.OnTCPFault = func(string, int) (bool, time.Duration) {
					return drop.CompareAndSwap(true, false), 0
				}
				var flaky *flakyInvoker
				h, c := replaceHarness(t, clk, func(inner Invoker) Invoker {
					flaky = &flakyInvoker{inner: inner}
					return flaky
				}, cfg)
				traceSpans(t, clk, c)
				drop.Store(tc.drop)
				if tc.reject {
					flaky.failures = 1
				}
				if tc.lose {
					flaky.lost = 1
				}
				h.st.fail = tc.abort
				before := c.Stats()
				start, want := clk.Now(), tc.took+legs(c, tc.tcpLegs)
				resp, err := c.Do(namespace.OpCreate, "/f", "")
				if err != nil || !resp.OK() {
					t.Fatalf("create: %v %v", resp, err)
				}
				if seq := c.seq.Load(); resp.ID != namespace.INodeID(seq) {
					t.Errorf("create (seq %d) got the response to seq %d", seq, resp.ID)
				}
				if took := clk.Since(start); took != want {
					t.Errorf("create answered after %v, want %v", took, want)
				}
				clk.Sleep(20 * time.Millisecond) // let a losing invocation finish
				st := c.Stats()
				if st.Retries-before.Retries != tc.retries || st.HTTPRPCs-before.HTTPRPCs != tc.http {
					t.Errorf("%d retries and %d HTTP invocations, want %d and %d",
						st.Retries-before.Retries, st.HTTPRPCs-before.HTTPRPCs, tc.retries, tc.http)
				}
				if n, replays := h.st.creates("/f"); n != 1 || replays != tc.replays {
					t.Errorf("the create acted %d times, %d copies replayed; want 1 and %d", n, replays, tc.replays)
				}
			})
		})
	}
}

// TestRacedDirectoryDeleteReissued: a raced delete that finds a directory
// is declined by its TCP copy, which decides the race, so its invocation
// runs nothing; the client re-issues the delete at once under a fresh Seq
// over TCP alone, neither raced nor replaced, though every request of this
// client is replaced.
func TestRacedDirectoryDeleteReissued(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h, c := replaceHarness(t, clk, nil, testCfg())
		h.st.dirs = true
		before, seq := c.Stats(), c.seq.Load()
		start, want := clk.Now(), legs(c, 4)
		resp, err := c.Do(namespace.OpDelete, "/d", "")
		if err != nil || !resp.OK() {
			t.Fatalf("delete: %v %v", resp, err)
		}
		if resp.ID != namespace.INodeID(seq+2) {
			t.Errorf("the delete answered the reply to seq %d, want the re-issue's %d", resp.ID, seq+2)
		}
		if took := clk.Since(start); took != want {
			t.Errorf("the delete answered after %v, want two TCP round trips, %v", took, want)
		}
		clk.Sleep(20 * time.Millisecond) // let the declined invocation finish
		if st := c.Stats(); st.TCPRPCs-before.TCPRPCs != 2 || st.HTTPRPCs-before.HTTPRPCs != 1 || st.Retries != before.Retries {
			t.Errorf("stats %+v, want 2 TCP calls, 1 invocation and no retry since %+v", st, before)
		}
		if _, replays := h.st.creates(""); replays != 0 {
			t.Errorf("%d declined copies answered from the row, want none: the invocation ran nothing", replays)
		}
	})
}

func TestConnectionSharingAcrossServers(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		inv := platformInvoker{h.p}
		// clientsPerTCPServer+1 clients: the last gets a TCP server of its own.
		var c1, c2 *Client
		for i := range clientsPerTCPServer + 1 {
			c2 = h.vm.NewClient(fmt.Sprintf("c%d", i+1), h.ring, inv)
			if i == 0 {
				c1 = c2
			}
		}
		if c1.tcp == c2.tcp {
			t.Fatal("clients should have distinct TCP servers")
		}
		// c1 establishes the connection via HTTP.
		if _, err := c1.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		// c2 has no connection on its own server but borrows c1's (Figure 4).
		if _, err := c2.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		if st := c2.Stats(); st.TCPRPCs != 1 || st.HTTPRPCs != 0 {
			t.Fatalf("c2 did not share c1's connection: %+v", st)
		}
	})
}

func TestDeadConnectionFailsOverToHTTP(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		// Kill the only instance; its connection is now dead.
		if !h.p.KillOneInstance(0) {
			t.Fatal("kill failed")
		}
		resp, err := c.Do(namespace.OpStat, "/a", "")
		if err != nil || !resp.OK() {
			t.Fatalf("op after kill failed: %v %v", resp, err)
		}
		// A fresh instance must have served it (via HTTP re-invocation).
		if st := c.Stats(); st.HTTPRPCs != 2 {
			t.Fatalf("stats after failover: %+v", st)
		}
	})
}

// TestKilledInstanceReplyIsLost kills an instance while a TCP read charges
// its CPU: the connection dies with it, so the client sees a lost
// connection and the retry is served elsewhere, not by the dead instance.
// The lost call's spans are closed like any other's.
func TestKilledInstanceReplyIsLost(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		traceSpans(t, clk, c)
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		victim := h.nns[0]
		victim.cpu = time.Millisecond
		clock.Go(clk, func() {
			clk.Sleep(victim.cpu / 2)
			if !h.p.KillOneInstance(0) {
				t.Error("kill failed")
			}
		})
		resp, err := c.Do(namespace.OpRead, "/a", "")
		if err != nil || !resp.OK() {
			t.Fatalf("read across the kill failed: %v %v", resp, err)
		}
		if resp.ServedBy == victim.inst.ID() {
			t.Fatalf("read answered by instance %s, killed while it ran", resp.ServedBy)
		}
		if st := c.Stats(); st.HTTPRPCs != 2 {
			t.Fatalf("stats after the kill: %+v, want the retry to go through HTTP", st)
		}
	})
}

func TestRoutingByParentDirectory(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 8, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		// Ops in the same directory go to the same deployment: after the
		// first op establishes the connection, siblings all use it.
		if _, err := c.Do(namespace.OpStat, "/dir/a", ""); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Do(namespace.OpStat, "/dir/b", ""); err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); st.HTTPRPCs != 1 || st.TCPRPCs != 5 {
			t.Fatalf("sibling routing stats: %+v", st)
		}
	})
}

func TestRetryThroughInvokerFailures(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		h := newHarness(t, clk, 1, cfg)
		flaky := &flakyInvoker{inner: platformInvoker{h.p}, failures: 3}
		c := h.vm.NewClient("c1", h.ring, flaky)
		c.rng = rand.New(halfSource{})
		traceSpans(t, clk, c)
		start := clk.Now()
		resp, err := c.Do(namespace.OpStat, "/a", "")
		if err != nil || !resp.OK() {
			t.Fatalf("retry did not recover: %v %v", resp, err)
		}
		if st := c.Stats(); st.Retries != 3 {
			t.Fatalf("retries = %d, want 3", st.Retries)
		}
		// Half of 25, 50 and 100ms: the full-jitter backoffs at a 0.5 draw.
		if took, want := clk.Since(start), (backoffBase+2*backoffBase+4*backoffBase)/2; took != want {
			t.Fatalf("three retries answered after %v, want their backoffs %v", took, want)
		}
	})
}

// flakyInvoker rejects its next failures invocations at once, and loses
// the answers of the lost invocations after those, which run.
type flakyInvoker struct {
	inner    Invoker
	mu       sync.Mutex
	failures int
	lost     int
}

func (f *flakyInvoker) Invoke(dep int, payload any) (any, error) {
	f.mu.Lock()
	if f.failures > 0 {
		f.failures--
		f.mu.Unlock()
		return nil, faas.ErrNoCapacity
	}
	lose := f.lost > 0
	if lose {
		f.lost--
	}
	f.mu.Unlock()
	v, err := f.inner.Invoke(dep, payload)
	if lose {
		return nil, faas.ErrNoCapacity
	}
	return v, err
}

func TestSemanticErrorsNotRetried(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		// Replace the app's behaviour: Execute returns ErrNotFound via a
		// wrapper server placed directly in the connection.
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		nn := h.nns[0]
		h.mu.Unlock()
		before := nn.execs.Load()
		// Semantic errors come back inside the Response; the client must not
		// retry them. (The test server always succeeds, so emulate by
		// checking a single execution for a normal op.)
		if _, err := c.Do(namespace.OpStat, "/missing", ""); err != nil {
			t.Fatal(err)
		}
		if nn.execs.Load() != before+1 {
			t.Fatalf("op executed %d times", nn.execs.Load()-before)
		}
	})
}

func TestHedgingFiresSecondAttempt(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()

		p := faas.New(clk, fastFaasCfg())
		defer p.Close()
		block := clock.NewEvent(clk)
		var nns []*testNN
		var mu sync.Mutex
		p.Register("nn", func(inst *faas.Instance) faas.App {
			mu.Lock()
			defer mu.Unlock()
			nn := &testNN{inst: inst}
			if len(nns) == 0 {
				nn.block = block // only the first instance stalls
			}
			nns = append(nns, nn)
			return nn
		}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8})

		vm := NewVM(clk, cfg)
		c := vm.NewClient("c1", partition.NewRing(1, 0), platformInvoker{p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		armHedging(c, time.Millisecond)
		// The primary parks for good; the hedge fires at the 50ms floor (ten
		// times the 1ms window mean is below it) and answers at that same
		// instant.
		start := clk.Now()
		resp, err := c.Do(namespace.OpRead, "/a", "")
		if err == nil && !resp.OK() {
			err = resp.Error()
		}
		if err != nil {
			t.Fatalf("hedged op failed: %v", err)
		}
		if took := clk.Since(start); took != stragglerFloor {
			t.Fatalf("hedged read answered after %v, want the straggler floor %v", took, stragglerFloor)
		}
		block.Set()
		if st := c.Stats(); st.Hedges != 1 {
			t.Fatalf("hedges = %d", st.Hedges)
		}
	})
}

// TestHedgedReadLeavesNoDeadlineBehind: a hedge-eligible read whose primary
// answers before the straggler threshold takes its threshold deadline with
// it — nothing is left on the simulation clock's heap to cost an advance
// when time later passes that instant.
func TestHedgedReadLeavesNoDeadlineBehind(t *testing.T) {
	cfg := testCfg()
	cfg.TCPOneWay = time.Millisecond

	sim := simtest.New(t)
	p := faas.New(sim, fastFaasCfg())
	defer p.Close()
	p.Register("nn", func(inst *faas.Instance) faas.App { return &testNN{inst: inst} },
		faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8})
	c := NewVM(sim, cfg).NewClient("c1", partition.NewRing(1, 0), platformInvoker{p})
	clock.Run(sim, func() {
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Fatal(err)
		}
		armHedging(c, time.Millisecond)
		start, want := sim.Now(), legs(c, 2)
		if _, err := c.Do(namespace.OpRead, "/a", ""); err != nil {
			t.Fatal(err)
		}
		if took := sim.Since(start); took != want {
			t.Fatalf("read took %v, want two one-way trips %v", took, want)
		}
		before := sim.Advances()
		sim.Sleep(time.Second) // across the 50ms threshold instant, short of the reclaimer's first tick
		if got := sim.Advances() - before; got != 1 {
			t.Errorf("%d advances across a 1s sleep, want 1: the finished read left a deadline behind", got)
		}
	})
	if st := c.Stats(); st.Hedges != 0 || st.TCPRPCs != 1 {
		t.Errorf("stats = %+v, want one unhedged TCP read", st)
	}
}

// TestHedgedCallReuseSkipsAbandonedPrimary: a client reuses a call record
// only once every racer of it has finished. Here one read straggles
// past the threshold (its primary delayed through OnTCPFault), its hedge
// answers, and 50 fast reads follow on the same client while the abandoned
// primary is still out: its late response lands mid-sequence, and it must
// never reach a later call — each call gets its own response. Every TCP
// call is delayed by OnTCPFault, the fast reads' 2ms as well, so each
// read's latency is exact.
func TestHedgedCallReuseSkipsAbandonedPrimary(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		const fast, slow = 2 * time.Millisecond, 2 * stragglerFloor
		var straggle atomic.Bool
		cfg.OnTCPFault = func(string, int) (bool, time.Duration) {
			if straggle.CompareAndSwap(true, false) {
				return false, slow
			}
			return false, fast
		}
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil { // establish conn
			t.Error(err)
			return
		}
		armHedging(c, time.Millisecond)
		read := func(what string) bool {
			resp, err := c.Do(namespace.OpRead, "/a", "")
			if err != nil {
				t.Errorf("%s: %v", what, err)
				return false
			}
			if seq := c.seq.Load(); resp.ID != namespace.INodeID(seq) {
				t.Errorf("%s (seq %d) got the response to seq %d", what, seq, resp.ID)
				return false
			}
			return true
		}
		straggle.Store(true)
		if !read("the straggling read") {
			return
		}
		if st := c.Stats(); st.Hedges != 1 {
			t.Errorf("hedges = %d after the straggler, want 1", st.Hedges)
			return
		}
		start := clk.Now()
		for i := 0; i < 50; i++ {
			if !read(fmt.Sprintf("fast read %d", i)) {
				return
			}
		}
		// The primary sent 100 ms after it started, 50 ms into the fast reads.
		if took := clk.Since(start); took != 50*fast {
			t.Errorf("50 fast reads took %v, want %v", took, 50*fast)
		}
		if st := c.Stats(); st.Hedges != 1 || st.TCPRPCs != 51 || st.HTTPRPCs != 2 {
			t.Errorf("stats = %+v, want 1 hedge, 51 TCP (the abandoned primary's included) and 2 HTTP", st)
		}
	})
}

func TestAntiThrashTriggersAndSuppressesReplacement(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		cfg.HTTPReplaceProb = 1.0 // would force HTTP every time...
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		// Simulate a latency collapse: a window of 1ms, then a 100ms op.
		armHedging(c, time.Millisecond)
		c.noteLatency(100 * time.Millisecond)
		if !c.inAntiThrash() {
			t.Fatal("anti-thrashing mode not entered")
		}
		if st := c.Stats(); st.AntiThrashEvents != 1 {
			t.Fatalf("events = %d", st.AntiThrashEvents)
		}
		// ...but anti-thrashing suppresses replacement for AntiThrashHold:
		// the next op, at once, is TCP.
		before := c.Stats().TCPRPCs
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		if c.Stats().TCPRPCs != before+1 {
			t.Fatal("anti-thrashing did not suppress HTTP replacement")
		}
	})
}

func TestTCPServerOfferDedupes(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		s := c.tcp
		if s.ConnCount(0) != 1 {
			t.Fatalf("conns = %d", s.ConnCount(0))
		}
		// Another HTTP invocation offers the same instance again: no dup.
		cfg2 := testCfg()
		cfg2.HTTPReplaceProb = 1
		c2 := h.vm.NewClient("c2", h.ring, platformInvoker{h.p})
		_ = c2
		if _, err := c.callHTTP(new(Payload), nil, 0, namespace.Request{Op: namespace.OpStat, Path: "/a", ClientID: "c1", Seq: 99}); err != nil {
			t.Fatal(err)
		}
		if s.ConnCount(0) != 1 {
			t.Fatalf("conns after re-offer = %d", s.ConnCount(0))
		}
	})
}

func TestDoSeqUnique(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		c.Do(namespace.OpStat, "/a", "")
		c.Do(namespace.OpStat, "/a", "")
		if c.seq.Load() != 2 {
			t.Fatalf("seq = %d", c.seq.Load())
		}
	})
}

func TestConnRotationSpreadsLoad(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// Two instances of the same deployment; the shared TCP server must
		// rotate across both so scaled-out instances absorb load.
		h := newHarness(t, clk, 1, testCfg())
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})
		// Establish a connection to the first instance.
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		// Force a second instance via a direct second HTTP call while the
		// first connection exists (replacement path).
		if _, err := c.callHTTP(new(Payload), nil, 0, namespace.Request{Op: namespace.OpStat, Path: "/a", ClientID: "c1", Seq: 1000}); err != nil {
			t.Fatal(err)
		}
		s := c.tcp
		if s.ConnCount(0) < 1 {
			t.Fatalf("conns = %d", s.ConnCount(0))
		}
		if s.ConnCount(0) >= 2 {
			seen := map[string]bool{}
			for i := 0; i < 8; i++ {
				conn := s.ConnFor(0, nil)
				seen[conn.InstanceID()] = true
			}
			if len(seen) < 2 {
				t.Fatalf("rotation used only %d of %d connections", len(seen), s.ConnCount(0))
			}
		}
	})
}

func TestClientsPerTCPServerBoundary(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		h := newHarness(t, clk, 1, testCfg())
		inv := platformInvoker{h.p}
		clients := make([]*Client, clientsPerTCPServer+1)
		for i := range clients {
			clients[i] = h.vm.NewClient(fmt.Sprintf("c%d", i+1), h.ring, inv)
		}
		first, last := clients[0], clients[clientsPerTCPServer]
		for _, c := range clients[1:clientsPerTCPServer] {
			if c.tcp != first.tcp {
				t.Fatalf("client %s should share the first TCP server", c.id)
			}
		}
		if last.tcp == first.tcp {
			t.Fatal("client n+1 should get a fresh TCP server (at-most-n rule)")
		}
		if got := len(h.vm.Servers()); got != 2 {
			t.Fatalf("servers = %d", got)
		}
	})
}

func TestBackoffBounded(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		// All attempts failing must return the last transport error, not hang.
		h := newHarness(t, clk, 1, testCfg())
		dead := &flakyInvoker{inner: platformInvoker{h.p}, failures: 1 << 30}
		c := h.vm.NewClient("c1", h.ring, dead)
		_, err := c.Do(namespace.OpStat, "/a", "")
		if err == nil {
			t.Fatal("expected transport failure after bounded attempts")
		}
		if st := c.Stats(); st.Retries != maxAttempts-1 {
			t.Fatalf("retries = %d, want maxAttempts-1", st.Retries)
		}
	})
}

// TestOnTCPFaultHook covers the chaos injection point on the TCP path: a
// dropped call surfaces as a lost connection and must fail over to the
// HTTP invocation path; an injected delay must leave the call intact.
func TestOnTCPFaultHook(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		var drops, delays atomic.Int64
		cfg.OnTCPFault = func(clientID string, dep int) (bool, time.Duration) {
			if drops.Add(-1) >= 0 {
				return true, 0
			}
			if delays.Add(-1) >= 0 {
				return false, time.Millisecond
			}
			return false, 0
		}
		h := newHarness(t, clk, 1, cfg)
		c := h.vm.NewClient("c1", h.ring, platformInvoker{h.p})

		// Establish the TCP connection via the first (HTTP) op.
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}

		// Second op would go TCP; the armed drop loses the connection and the
		// client must recover through HTTP re-invocation.
		drops.Store(1)
		resp, err := c.Do(namespace.OpStat, "/a", "")
		if err != nil || !resp.OK() {
			t.Fatalf("op during injected drop: %v %v", resp, err)
		}
		if st := c.Stats(); st.HTTPRPCs != 2 {
			t.Fatalf("drop did not force HTTP failover: %+v", st)
		}

		// An injected delay slows the call but leaves it on TCP.
		delays.Store(1)
		before := c.Stats().TCPRPCs
		if _, err := c.Do(namespace.OpStat, "/a", ""); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().TCPRPCs; got != before+1 {
			t.Fatalf("delayed call left TCP: %d -> %d", before, got)
		}
	})
}

// TestHedgedReadFailsOver: a hedge-eligible read whose primary loses its
// connection fails over to the VM's other live connection, exactly like an
// unhedged read, instead of spending a retry and a backoff.
func TestHedgedReadFailsOver(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := testCfg()
		var drop atomic.Bool
		cfg.OnTCPFault = func(string, int) (bool, time.Duration) {
			return drop.CompareAndSwap(true, false), 0
		}
		p := faas.New(clk, fastFaasCfg())
		defer p.Close()
		var nns []*testNN
		p.Register("nn", func(inst *faas.Instance) faas.App {
			nn := &testNN{inst: inst}
			nns = append(nns, nn)
			return nn
		}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 8, MinInstances: 2})
		c := NewVM(clk, cfg).NewClient("c1", partition.NewRing(1, 0), platformInvoker{p})
		for _, nn := range nns {
			c.tcp.Offer(0, NewConn(nn.inst, nn))
		}
		if got := c.tcp.ConnCount(0); got != 2 {
			t.Fatalf("live connections = %d, want 2", got)
		}
		armHedging(c, time.Millisecond)
		drop.Store(true)
		resp, err := c.Do(namespace.OpRead, "/a", "")
		if err == nil && !resp.OK() {
			err = resp.Error()
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		st := c.Stats()
		if st.Retries != 0 || st.ConnFailovers != 1 || st.TCPRPCs != 1 || st.HTTPRPCs != 0 {
			t.Fatalf("stats = %+v, want 0 retries, 1 failover, 1 TCP and no HTTP call", st)
		}
	})
}

// TestClientJitterSeedDeterminism pins the client's jitter stream (HTTP
// replacement draws, backoff jitter) to (Config.Seed, client id): same
// pair, same stream; different seed or id, different stream. This is what
// makes a whole-run -seed replay reproduce every retry decision.
func TestClientJitterSeedDeterminism(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		draw := func(seed int64, id string) [8]float64 {
			cfg := DefaultConfig()
			cfg.Seed = seed
			vm := NewVM(clk, cfg)
			c := vm.NewClient(id, partition.NewRing(1, 0), nil)
			var out [8]float64
			for i := range out {
				out[i] = c.rng.Float64()
			}
			return out
		}
		if draw(1, "c0") != draw(1, "c0") {
			t.Fatal("same (seed, id) must replay the same jitter stream")
		}
		if draw(1, "c0") == draw(2, "c0") {
			t.Fatal("different seeds must decorrelate the jitter stream")
		}
		if draw(1, "c0") == draw(1, "c1") {
			t.Fatal("different clients must draw decorrelated streams")
		}
	})
}

// TestTCPOneWayJitter: each TCP leg takes TCPOneWay·(1 ± tcpJitter),
// uniformly, from a stream of (Config.Seed, client id) of its own, so the
// draws replay under a seed, differ between clients, and move none of the
// replacement and backoff draws.
func TestTCPOneWayJitter(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		vm := NewVM(clk, cfg)
		client := func(id string) *Client { return vm.NewClient(id, partition.NewRing(1, 0), nil) }
		lo := cfg.TCPOneWay - time.Duration(tcpJitter*float64(cfg.TCPOneWay))
		hi := cfg.TCPOneWay + time.Duration(tcpJitter*float64(cfg.TCPOneWay))
		const n = 20000
		a, b, other := client("c0"), client("c0"), client("c1")
		var sum time.Duration
		var below, above int
		same, differ := true, false
		for i := 0; i < n; i++ {
			d := a.tcpOneWay()
			if d < lo || d >= hi {
				t.Fatalf("leg %d took %v, want within [%v, %v)", i, d, lo, hi)
			}
			if d < cfg.TCPOneWay {
				below++
			} else {
				above++
			}
			sum += d
			same = same && b.tcpOneWay() == d
			differ = differ || other.tcpOneWay() != d
		}
		if !same || !differ {
			t.Fatalf("same (seed, id) replays: %v, another id differs: %v; want both", same, differ)
		}
		if mean := sum / n; mean < cfg.TCPOneWay-time.Microsecond || mean > cfg.TCPOneWay+time.Microsecond {
			t.Fatalf("mean leg %v, want %v ± 1µs", mean, cfg.TCPOneWay)
		}
		if below < n*45/100 || above < n*45/100 {
			t.Fatalf("%d legs below and %d above %v, want about half each", below, above, cfg.TCPOneWay)
		}
		if fresh := client("c0"); a.rng.Float64() != fresh.rng.Float64() {
			t.Fatal("latency draws moved the replacement and backoff stream")
		}
	})
}
