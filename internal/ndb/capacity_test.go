package ndb

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// TestNewStartsNoGoroutines: shard capacity is a clock.Queue, not a worker
// pool — a store nobody closes must not leave goroutines parked for the
// life of the process.
func TestNewStartsNoGoroutines(t *testing.T) {
	clk := clock.NewSim()
	defer clk.Close()
	before := runtime.NumGoroutine()
	db := New(clk, DefaultConfig())
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("ndb.New started %d goroutines", after-before)
	}
	runtime.KeepAlive(db)
}

// queueDepth reads lambdafs_ndb_queue_depth for one shard.
func queueDepth(reg *telemetry.Registry, shard int) float64 {
	for _, m := range reg.Gather() {
		if m.Name == "lambdafs_ndb_queue_depth" && len(m.Labels) == 1 && m.Labels[0].Value == strconv.Itoa(shard) {
			return m.Value
		}
	}
	return -1
}

// TestStalledShardBuildsQueueDepth: a shard whose accesses are stalled
// (fault injection through OnShardService) backs up, and the depth gauge
// shows exactly the accesses that hold a reservation but no worker yet —
// past the SLO pack's saturation threshold of 8 — through both a
// single-row read and a batched resolution, and drains to zero afterwards.
func TestStalledShardBuildsQueueDepth(t *testing.T) {
	sim := clock.NewSim()
	defer sim.Close()
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig() // 8 workers per shard
	cfg.Metrics = reg
	var stalled int
	cfg.OnShardService = func(shard int) time.Duration {
		if shard == stalled {
			return 20 * time.Millisecond
		}
		return 0
	}
	db := New(sim, cfg)
	stalled = db.shardFor(inodeKey(namespace.RootID)) // the root row's shard; "/" batched reads only it

	const callers = 40
	clock.Run(sim, func() {
		g := clock.NewGroup(sim)
		for i := 0; i < callers; i++ {
			g.Go(func() {
				var err error
				if i%2 == 0 {
					tx := db.Begin("reader")
					_, err = tx.GetINode(namespace.RootID, store.LockNone)
					tx.Abort()
				} else {
					_, err = db.ResolvePathBatched("/", nil)
				}
				if err != nil {
					t.Error(err)
				}
			})
		}
		sim.Sleep(cfg.RTT + time.Millisecond) // everyone has arrived; 8 are in service
		if got := queueDepth(reg, stalled); got != callers-8 {
			t.Errorf("depth on the stalled shard = %v mid-stall, want %d", got, callers-8)
		}
		for shard := range db.shards {
			if got := queueDepth(reg, shard); shard != stalled && got != 0 {
				t.Errorf("depth on idle shard %d = %v, want 0", shard, got)
			}
		}
		g.Wait()
		// 40 accesses of 20.15ms on 8 workers: five rounds after the RTT.
		if got, want := sim.Since(clock.Epoch), cfg.RTT+5*(20*time.Millisecond+cfg.ReadService); got != want {
			t.Errorf("stalled accesses drained at %v, want %v", got, want)
		}
		if got := queueDepth(reg, stalled); got != 0 {
			t.Errorf("depth after the drain = %v, want 0", got)
		}
	})
}

// TestBatchedSpansCarryReservedWindows: a multi-get waits once for its
// slowest shard, yet its trace still shows each shard's queue wait and
// service as their own spans, stamped with the reserved window.
func TestBatchedSpansCarryReservedWindows(t *testing.T) {
	sim := clock.NewSim()
	defer sim.Close()
	cfg := DefaultConfig()
	cfg.WorkersPerNode = 1
	db := New(sim, cfg)
	tracer := trace.New(sim, trace.Config{})
	shard := db.shardFor(inodeKey(1))

	var tc *trace.Ctx
	clock.Run(sim, func() {
		// Book the shard's only worker until one ReadService past the
		// moment the multi-get's round trip lands.
		db.shards[shard].Reserve(sim.Now(), cfg.RTT+cfg.ReadService)
		tc = tracer.StartTrace("stat", "/", "c0")
		_, _ = db.ResolvePathBatched("/", tc)
		tc.Finish("")
	})

	arrive := tc.Trace().Start.Add(cfg.RTT)
	var queue, service *trace.Span
	for _, sp := range tc.Trace().Spans() {
		switch sp.Kind {
		case trace.KindStoreQueue:
			queue = &sp
		case trace.KindStoreService:
			service = &sp
		}
	}
	if queue == nil || service == nil {
		t.Fatalf("spans = %+v, want one ndb.queue and one ndb.service", tc.Trace().Spans())
	}
	if !queue.Start.Equal(arrive) || queue.Dur != cfg.ReadService || queue.Shard != shard {
		t.Errorf("queue span [%v +%v] shard %d, want [%v +%v] shard %d",
			queue.Start, queue.Dur, queue.Shard, arrive, cfg.ReadService, shard)
	}
	if !service.Start.Equal(arrive.Add(cfg.ReadService)) || service.Dur != cfg.ReadService || service.Shard != shard || service.Res.Allocs != 1 {
		t.Errorf("service span [%v +%v] shard %d allocs %d, want [%v +%v] shard %d allocs 1",
			service.Start, service.Dur, service.Shard, service.Res.Allocs, arrive.Add(cfg.ReadService), cfg.ReadService, shard)
	}
	if got, want := tc.Trace().Duration(), cfg.RTT+2*cfg.ReadService; got != want {
		t.Errorf("multi-get took %v, want RTT + queue + service = %v", got, want)
	}
}
