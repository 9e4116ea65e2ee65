package core

import (
	"sync/atomic"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/rpc"
	"lambdafs/internal/simtest"
	"lambdafs/internal/telemetry"
)

// raceFleet is one NameNode deployment on a FaaS platform whose gateway
// hop (4 ms each way) is far slower than a TCP call (300 µs each way, a
// 400 µs engine), so a replaced request's TCP call decides its race long
// before its invocation reaches a NameNode. Each instance allows one HTTP
// invocation at a time; one instance is warm from the start. The engines
// count their CPU charges, and a "hog" client's invocation parks in its
// NameNode until gate is set, holding its instance's HTTP slot.
type raceFleet struct {
	st   *ndb.DB
	p    *faas.Platform
	ring *partition.Ring
	vm   *rpc.VM
	reg  *telemetry.Registry // the engines' and the clients' instruments
	gate *clock.Event
	cpu  atomic.Int64 // CPU charges of every engine
}

const raceColdStart = 50 * time.Millisecond

func newRaceFleet(t *testing.T, clk *clock.Sim) *raceFleet {
	t.Helper()
	f := &raceFleet{ring: partition.NewRing(1, 0), reg: telemetry.NewRegistry(), gate: clock.NewEvent(clk)}
	dbCfg := ndb.DefaultConfig()
	dbCfg.RTT, dbCfg.ReadService, dbCfg.WriteService = 100*time.Microsecond, 0, 0
	f.st = ndb.New(clk, dbCfg)
	coord := fastCoord(clk, f.st)
	fCfg := faas.DefaultConfig()
	fCfg.GatewayLatency = 4 * time.Millisecond
	fCfg.ColdStart = raceColdStart
	fCfg.IdleReclaim = 0
	f.p = faas.New(clk, fCfg)
	t.Cleanup(f.p.Close)
	eCfg := DefaultEngineConfig()
	eCfg.Metrics = f.reg
	f.p.Register("nn", func(inst *faas.Instance) faas.App {
		eng := NewEngine(inst.ID(), 0, clk, f.st, f.ring, coord, &countingCPU{inst, &f.cpu}, eCfg)
		return &gatedNameNode{NewNameNode(eng, inst, coord), f.gate}
	}, faas.DeploymentOptions{VCPU: 1, RAMGB: 1, ConcurrencyLevel: 1, MinInstances: 1})
	rCfg := rpc.DefaultConfig()
	rCfg.HTTPReplaceProb = 1
	rCfg.Metrics = f.reg
	f.vm = rpc.NewVM(clk, rCfg)
	return f
}

// countingCPU is an instance's CPU that counts the charges made on it.
type countingCPU struct {
	inst *faas.Instance
	n    *atomic.Int64
}

func (c *countingCPU) AcquireCPU(d time.Duration) {
	c.n.Add(1)
	c.inst.AcquireCPU(d)
}

// gatedNameNode parks the hog client's invocations until gate is set.
type gatedNameNode struct {
	*NameNode
	gate *clock.Event
}

func (g *gatedNameNode) HandleInvoke(payload any) any {
	if p, ok := payload.(*rpc.Payload); ok && p.Req.ClientID == "hog" {
		g.gate.Wait()
	}
	return g.NameNode.HandleInvoke(payload)
}

// work is what the engines have done: CPU charges, store reads and
// commits, and raced writes answered from their row.
type work struct {
	cpu                    int64
	reads, commits, replay uint64
}

func (f *raceFleet) work() work {
	s := f.st.Stats()
	return work{f.cpu.Load(), s.Reads, s.Commits, uint64(f.reg.Counter("lambdafs_core_raced_replays_total").Value())}
}

func (f *raceFleet) cancelled() float64 {
	return f.reg.Counter("lambdafs_rpc_race_cancelled_total").Value()
}

// mustDo runs one op of c and fails the test unless it answers success.
func mustDo(t *testing.T, c *rpc.Client, op namespace.OpType, path string) *namespace.Response {
	t.Helper()
	resp, err := c.Do(op, path, "")
	if err != nil || !resp.OK() {
		t.Fatalf("%v %s: %+v %v", op, path, resp, err)
	}
	return resp
}

// A replaced read and a replaced create whose TCP call wins: the
// invocation still goes through the platform, which counts it, but its
// NameNode runs nothing for it — no CPU charge, no store read or commit, no
// answer from the create's result row — and still connects back to the
// client, which forgot its connection meanwhile. The client counts the
// copy as cancelled.
func TestCancelledLoserRunsNoEngine(t *testing.T) {
	for _, tc := range []struct {
		op   namespace.OpType
		path string
	}{
		{namespace.OpRead, "/d/f"},
		{namespace.OpCreate, "/d/g"},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			simtest.Run(t, func(clk *clock.Sim) {
				f := newRaceFleet(t, clk)
				c := f.vm.NewClient("c1", f.ring, f.p)
				mustDo(t, c, namespace.OpMkdirs, "/d") // over HTTP: no connection yet
				mustDo(t, c, namespace.OpCreate, "/d/f")
				clk.Sleep(20 * time.Millisecond) // every loser so far has ended
				srv := f.vm.Servers()[0]
				before, cancelled, invocations := f.work(), f.cancelled(), f.p.Stats().Invocations

				mustDo(t, c, tc.op, tc.path)
				won := f.work()
				if won.cpu != before.cpu+1 {
					t.Errorf("the TCP call charged %d CPU, want 1", won.cpu-before.cpu)
				}
				conn := srv.ConnFor(0, nil)
				srv.Remove(0, conn)
				clk.Sleep(20 * time.Millisecond) // the invocation reaches its NameNode and ends

				if after := f.work(); after != won {
					t.Errorf("the loser ran on the engine: %+v once the TCP call answered, %+v after the invocation", won, after)
				}
				if n := f.cancelled() - cancelled; n != 1 {
					t.Errorf("%v copies cancelled, want the invocation", n)
				}
				if n := f.p.Stats().Invocations - invocations; n != 1 {
					t.Errorf("the platform saw %d invocations, want 1", n)
				}
				if srv.ConnCount(0) != 1 {
					t.Error("the cancelled invocation's NameNode did not connect back")
				}
			})
		})
	}
}

// A cancelled copy still scales the deployment out (§3.4's signal): the
// warm instance's one HTTP slot is held by the hog's invocation, so a
// replaced stat's invocation, whose race the TCP call decides at once,
// provisions a second instance, which connects back to the client.
func TestCancelledLoserStillScalesOut(t *testing.T) {
	simtest.Run(t, func(clk *clock.Sim) {
		f := newRaceFleet(t, clk)
		c := f.vm.NewClient("c1", f.ring, f.p)
		mustDo(t, c, namespace.OpMkdirs, "/d") // over HTTP: no connection yet
		hogVM := rpc.NewVM(clk, rpc.DefaultConfig())
		hog := hogVM.NewClient("hog", f.ring, f.p)
		g := clock.NewGroup(clk)
		g.Go(func() { // its VM has no connection: HTTP
			if resp, err := hog.Do(namespace.OpStat, "/d", ""); err != nil || !resp.OK() {
				t.Errorf("the hog's stat: %+v %v", resp, err)
			}
		})
		clk.Sleep(10 * time.Millisecond) // the hog holds the warm instance's slot
		srv := f.vm.Servers()[0]
		before, cancelled := f.p.Stats(), f.cancelled()

		start := clk.Now()
		mustDo(t, c, namespace.OpStat, "/d")
		if took := clk.Since(start); took > 2*time.Millisecond {
			t.Errorf("the replaced stat took %v, want the TCP call's answer", took)
		}
		clk.Sleep(raceColdStart + 20*time.Millisecond)
		after := f.p.Stats()
		if after.ColdStarts != before.ColdStarts+1 || after.Deployments[0].Alive != 2 {
			t.Errorf("cold starts %d → %d, %d instances alive; want the invocation to provision a second",
				before.ColdStarts, after.ColdStarts, after.Deployments[0].Alive)
		}
		if srv.ConnCount(0) != 2 {
			t.Errorf("the client holds %d connections, want the second instance's too", srv.ConnCount(0))
		}
		if n := f.cancelled() - cancelled; n != 1 {
			t.Errorf("%v copies cancelled, want the invocation", n)
		}
		f.gate.Set()
		g.Wait()
	})
}
