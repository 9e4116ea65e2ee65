package ndb

import (
	"maps"
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
// The stall delays a commit that writes one of the shard's rows, and not a
// commit that writes none.
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

		for _, onStalled := range []bool{true, false} {
			id := db.NextID()
			for (db.shardFor(inodeKey(id)) == stalled) != onStalled {
				id = db.NextID()
			}
			want := max(cfg.RTT, cfg.WriteService)
			if onStalled {
				want = 20*time.Millisecond + cfg.WriteService
			}
			tx := db.Begin("writer")
			if err := tx.PutINode(&namespace.INode{ID: id, ParentID: namespace.RootID,
				Name: "f" + strconv.Itoa(int(id)), Perm: namespace.PermDefaultFile}); err != nil {
				t.Fatal(err)
			}
			start := sim.Now()
			mustCommit(t, tx)
			if got := sim.Since(start); got != want {
				t.Errorf("commit of a row on shard %d (stalled: %v) took %v, want %v", db.shardFor(inodeKey(id)), onStalled, got, want)
			}
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
	if !service.Start.Equal(arrive.Add(cfg.ReadService)) || service.Dur != cfg.ReadService || service.Shard != shard {
		t.Errorf("service span [%v +%v] shard %d, want [%v +%v] shard %d",
			service.Start, service.Dur, service.Shard, arrive.Add(cfg.ReadService), cfg.ReadService, shard)
	}
	if got, want := tc.Trace().Duration(), cfg.RTT+2*cfg.ReadService; got != want {
		t.Errorf("multi-get took %v, want RTT + queue + service = %v", got, want)
	}
}

// TestCommitReservesOwnerShards pins which shards the commits of the four
// namespace writes reserve: each written row is served by its own key's
// shard, whatever the commit's size, and the rows a shard owns share one
// write batch. The shards are literal: the rows' placement on 4 data nodes
// is i/2 (/a) on 1, i/3 (/b) on 2, i/4 (/a/f) on 3 and i/6 on 1
// (TestRowKeyHashesItsStringForm pins the hash).
func TestCommitReservesOwnerShards(t *testing.T) {
	dir := func(id namespace.INodeID, name string) *namespace.INode {
		return &namespace.INode{ID: id, ParentID: namespace.RootID, Name: name, IsDir: true, Perm: namespace.PermDefaultDir}
	}
	file := func(id, parent namespace.INodeID, name string) *namespace.INode {
		return &namespace.INode{ID: id, ParentID: parent, Name: name, Perm: namespace.PermDefaultFile}
	}
	put := func(rows ...*namespace.INode) func(store.Tx) error {
		return func(tx store.Tx) error {
			for _, n := range rows {
				if err := tx.PutINode(n); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, c := range []struct {
		name  string
		write func(store.Tx) error
		want  map[int]int // shard → rows it serves
	}{
		// The new file and its parent sit on one shard: one batch.
		{"create /a/n", put(file(6, 2, "n"), dir(2, "a")), map[int]int{1: 2}},
		{"mv /a/f /a/h", put(file(4, 2, "h"), dir(2, "a")), map[int]int{1: 1, 3: 1}},
		{"mv /a/f /b/f", put(file(4, 3, "f"), dir(2, "a"), dir(3, "b")), map[int]int{1: 1, 2: 1, 3: 1}},
		{"delete /a/f", func(tx store.Tx) error {
			if err := tx.DeleteINode(4); err != nil {
				return err
			}
			return tx.PutINode(dir(2, "a"))
		}, map[int]int{1: 1, 3: 1}},
	} {
		sim := clock.NewSim()
		cfg := DefaultConfig() // 4 data nodes, 8 workers each
		cfg.RTT, cfg.ReadService = 0, 0
		db := New(sim, cfg)
		db.Preload([]*namespace.INode{dir(2, "a"), dir(3, "b"), file(4, 2, "f")})
		tracer := trace.New(sim, trace.Config{})
		var took time.Duration
		var tc *trace.Ctx
		rows := map[int]int{}
		clock.Run(sim, func() {
			tc = tracer.StartTrace("commit", "/", "c0")
			wtx := db.BeginTraced("w", tc)
			if err := c.write(wtx); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for shard, n := range wtx.(*tx).countWrites(make([]int, len(db.shards))) {
				if n > 0 {
					rows[shard] = n
				}
			}
			start := sim.Now()
			mustCommit(t, wtx)
			took = sim.Since(start)
			tc.Finish("")
		})
		sim.Close()
		spans := tc.Trace().Spans()
		var commit uint64 // ended, and so recorded, after its shards' spans
		for _, sp := range spans {
			if sp.Kind == trace.KindStoreCommit {
				commit = sp.ID
			}
		}
		if !maps.Equal(rows, c.want) {
			t.Errorf("%s: rows per shard %v, want %v", c.name, rows, c.want)
		}
		served := map[int]int{}
		for _, sp := range spans {
			if sp.Kind != trace.KindStoreService {
				continue
			}
			if sp.Parent != commit || sp.Dur != cfg.WriteService {
				t.Errorf("%s: shard %d served %v under span %d, want one WriteService (%v) under the commit's %d",
					c.name, sp.Shard, sp.Dur, sp.Parent, cfg.WriteService, commit)
			}
			served[sp.Shard] = rows[sp.Shard]
		}
		if !maps.Equal(served, c.want) {
			t.Errorf("%s: shards served %v, want one service span per row-owning shard %v", c.name, served, c.want)
		}
		if took != cfg.WriteService {
			t.Errorf("%s: commit took %v, want one write batch (%v) on every shard at once", c.name, took, cfg.WriteService)
		}
	}
}

// TestCreateThroughputGrowsWithDataNodes: write capacity scales with the
// data nodes. The same closed loop — every client creating files in a
// directory of its own, one LockPaths round and one commit each — commits
// strictly more creates per virtual second on 2 data nodes than on 1, on 4
// than on 2 and on 8 than on 4.
func TestCreateThroughputGrowsWithDataNodes(t *testing.T) {
	const clients, creates = 64, 16
	rate := func(dataNodes int) float64 {
		sim := clock.NewSim()
		defer sim.Close()
		cfg := DefaultConfig()
		cfg.DataNodes, cfg.WorkersPerNode = dataNodes, 1
		db := New(sim, cfg)
		dirs := make([]*namespace.INode, clients)
		for i := range dirs {
			dirs[i] = &namespace.INode{ID: namespace.INodeID(i + 2), ParentID: namespace.RootID,
				Name: "d" + strconv.Itoa(i), IsDir: true, Perm: namespace.PermDefaultDir}
		}
		db.Preload(dirs)
		var took time.Duration
		clock.Run(sim, func() {
			start := sim.Now()
			g := clock.NewGroup(sim)
			for i := 0; i < clients; i++ {
				g.Go(func() {
					for k := 0; k < creates; k++ {
						path := "/d" + strconv.Itoa(i) + "/f" + strconv.Itoa(k)
						if err := create(db, path); err != nil {
							t.Errorf("create %s: %v", path, err)
							return
						}
					}
				})
			}
			g.Wait()
			took = sim.Since(start)
		})
		return clients * creates / took.Seconds()
	}
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		got := rate(n)
		t.Logf("%d data nodes: %.0f creates/s", n, got)
		if got <= prev {
			t.Errorf("%d data nodes commit %.0f creates/s, want more than %.0f with half as many", n, got, prev)
		}
		prev = got
	}
}

// create is a file create's transaction, as the NameNode runs it: the
// path's rows locked in one round, then the new row and its parent's
// written in one commit.
func create(db *DB, path string) error {
	tx := db.Begin("nn")
	locked, err := tx.LockPaths(path)
	if err != nil {
		tx.Abort()
		return err
	}
	parent := locked[0].Chain[len(locked[0].Chain)-1]
	if err := tx.PutINode(&namespace.INode{ID: db.NextID(), ParentID: parent.ID,
		Name: namespace.BaseName(path), Perm: namespace.PermDefaultFile}); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.PutINode(parent); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
