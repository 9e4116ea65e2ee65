package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/store"
)

const (
	// LeaderGroup is the election group cluster engines compete for;
	// leader flap faults rotate it.
	LeaderGroup = "chaos-nn"
	// clients is how many clients issue a seeded episode's requests.
	clients = 4
	// mediaShards is the shard count of every durable store's media.
	mediaShards = 4
)

// cluster is the λFS cluster every chaos episode and test runs on: one
// store, one coordinator, and zero-cost engines of one deployment — their
// only virtual-time cost is the store's and whatever a fault injects.
type cluster struct {
	clk  *clock.Sim
	db   *ndb.DB
	zk   *coordinator.ZK
	ring *partition.Ring
	ecfg core.EngineConfig
	// invalidate, when set, receives every engine's invalidations in place
	// of the engine's own handler.
	invalidate func(e *core.Engine, inv coordinator.Invalidation)
	engines    []*core.Engine
	nnSeq      int
	seqs       [clients]uint64
}

// newCluster builds a cluster on a store from ncfg, whose registry the
// coordinator and engines share, with coordinator hops of hop and n engines
// registered and queued for LeaderGroup in slot order, so slot 0 leads.
// tune, when non-nil, adjusts the engine config or sets invalidate before
// the first engine spawns.
func newCluster(clk *clock.Sim, ncfg ndb.Config, hop time.Duration, n int, tune func(*cluster)) *cluster {
	c := &cluster{clk: clk, db: ndb.New(clk, ncfg), ring: partition.NewRing(1, 0)}
	ccfg := coordinator.DefaultConfig()
	ccfg.HopLatency = hop
	ccfg.Metrics = ncfg.Metrics
	ccfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(c.db, id) }
	c.zk = coordinator.NewZK(clk, ccfg)
	c.ecfg = core.DefaultEngineConfig()
	c.ecfg.OpCPUCost, c.ecfg.SubtreeCPUPerINode = 0, 0
	c.ecfg.Metrics = ncfg.Metrics
	if tune != nil {
		tune(c)
	}
	c.engines = make([]*core.Engine, n)
	for slot := range c.engines {
		c.spawnEngine(slot)
	}
	return c
}

// spawnEngine fills slot with a fresh engine named nn-<seq>.
func (c *cluster) spawnEngine(slot int) {
	id := fmt.Sprintf("nn-%d", c.nnSeq)
	c.nnSeq++
	e := core.NewEngine(id, 0, c.clk, c.db, c.ring, c.zk, nil, c.ecfg)
	c.engines[slot] = e
	h := e.HandleInvalidation
	if c.invalidate != nil {
		h = func(inv coordinator.Invalidation) { c.invalidate(e, inv) }
	}
	c.zk.Register(0, id, h)
	c.zk.TryLead(LeaderGroup, id)
}

// replace expires the session of slot's engine and fills the slot with a
// fresh one — a new serverless instance with an empty cache, exactly like
// a FaaS replacement. It returns the retired engine's id.
func (c *cluster) replace(slot int, inj *Injector) string {
	old := c.engines[slot].ID()
	c.zk.ExpireSession(old)
	inj.NoteFired(FaultLeaseExpiry, "nn="+old)
	c.spawnEngine(slot)
	return old
}

// The op mixes seeded episodes draw from, as weight tables: an op appears
// as many times as its weight. The model-checked episode leans on writes
// that collide; the alert episodes' steady traffic builds a tree and reads
// it.
var (
	episodeMix = []namespace.OpType{
		namespace.OpCreate, namespace.OpCreate, namespace.OpCreate,
		namespace.OpMkdirs, namespace.OpMkdirs,
		namespace.OpDelete, namespace.OpDelete,
		namespace.OpMv, namespace.OpMv,
		namespace.OpStat, namespace.OpLs, namespace.OpRead,
	}
	alertMix = []namespace.OpType{
		namespace.OpMkdirs, namespace.OpMkdirs, namespace.OpMkdirs,
		namespace.OpCreate, namespace.OpCreate,
		namespace.OpStat, namespace.OpLs, namespace.OpRead,
	}
)

// next draws one request off rng — the issuing client, the serving
// engine, an op from mix, its path and, for mv, a destination, in that
// order — and stamps it with the client's next sequence number.
func (c *cluster) next(rng *rand.Rand, mix []namespace.OpType) (int, *core.Engine, namespace.Request) {
	client := rng.Intn(clients)
	e := c.engines[rng.Intn(len(c.engines))]
	req := namespace.Request{Op: mix[rng.Intn(len(mix))], Path: randPath(rng)}
	if req.Op == namespace.OpMv {
		req.Dest = randPath(rng)
	}
	c.seqs[client]++
	req.ClientID, req.Seq = fmt.Sprintf("c%d", client), c.seqs[client]
	return client, e, req
}

// randPath draws a path one to three components deep from a four-name
// universe, so operations collide often.
func randPath(rng *rand.Rand) string {
	n := rng.Intn(3) + 1
	p := ""
	for i := 0; i < n; i++ {
		p += fmt.Sprintf("/n%d", rng.Intn(4))
	}
	return p
}

// zeroStore is the store config of the model-checked clusters: nothing
// costs virtual time but an injected stall, and a lock wait gives up after
// 150ms.
func zeroStore() ndb.Config {
	c := ndb.DefaultConfig()
	c.RTT, c.ReadService, c.WriteService = 0, 0, 0
	c.LockWaitTimeout = 150 * time.Millisecond
	return c
}

// injected returns cfg with every store hook of inj wired in.
func injected(cfg ndb.Config, inj *Injector) ndb.Config {
	cfg.OnCommit = inj.NDBOnCommit
	cfg.OnShardService = inj.NDBOnShardService
	cfg.OnWALAppend = inj.NDBOnWALAppend
	cfg.OnCheckpoint = inj.NDBOnCheckpoint
	return cfg
}

// durableConfig returns cfg with inj's hooks wired in, on fresh
// checkpoint media whose stores cost no virtual time.
func durableConfig(clk *clock.Sim, inj *Injector, cfg ndb.Config) ndb.Config {
	media := lsm.DefaultConfig()
	media.PutLatency, media.ProbeLatency = 0, 0
	media.FlushPerEntry, media.CompactPerEntry = 0, 0
	cfg = injected(cfg, inj)
	cfg.Durable = ndb.NewDurable(clk, mediaShards, media)
	return cfg
}

// durable is a store that survives a crash: the crash-restart episode's
// and the crash_restart alert family's.
type durable struct {
	clk *clock.Sim
	cfg ndb.Config
	db  *ndb.DB
}

func newDurable(clk *clock.Sim, inj *Injector, cfg ndb.Config) *durable {
	cfg = durableConfig(clk, inj, cfg)
	return &durable{clk: clk, cfg: cfg, db: ndb.New(clk, cfg)}
}

// commit runs fn in one transaction and commits it.
func (d *durable) commit(fn func(tx store.Tx) error) error {
	tx := d.db.Begin("chaos")
	if err := fn(tx); err != nil {
		tx.Abort()
		return fmt.Errorf("build tx: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

// crash abandons the live store and, when recovery succeeds, replaces it
// with the store ndb.Recover rebuilds from the media.
func (d *durable) crash() (*ndb.RecoveryStats, error) {
	db, stats, err := ndb.Recover(d.clk, d.cfg)
	if err == nil {
		d.db = db
	}
	return stats, err
}
