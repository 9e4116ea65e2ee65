// Package lambdafs is a from-scratch Go reproduction of λFS, the
// serverless-function-based, elastic distributed file system metadata
// service of Carver et al. (ASPLOS '23), together with every substrate its
// evaluation depends on: an OpenWhisk-like FaaS platform, a MySQL-Cluster-
// NDB-like transactional metadata store, a ZooKeeper-like coordinator,
// DataNodes, and the HopsFS / HopsFS+Cache / InfiniCache / CephFS /
// IndexFS baselines.
//
// The package runs entirely in-process on a virtual clock: a Cluster is a
// complete λFS deployment (store, coordinator, FaaS platform, n NameNode
// deployments), and Clients issue metadata operations through the paper's
// hybrid HTTP/TCP RPC client library. See DESIGN.md for the architecture
// and EXPERIMENTS.md for the reproduced evaluation.
//
//	cfg := lambdafs.DefaultConfig()
//	cluster, _ := lambdafs.NewCluster(cfg)
//	defer cluster.Close()
//	client := cluster.NewClient("app-1")
//	client.MkdirAll("/data/logs")
//	client.Create("/data/logs/day1.log")
//	entries, _ := client.List("/data/logs")
package lambdafs

import (
	"fmt"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/metrics"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// Config assembles a λFS cluster. Start from DefaultConfig and edit the
// fields to change: NewCluster fills no zero field, so a Config{} is
// rejected (its store has no shards).
type Config struct {
	// SystemConfig is the deployment shape: n deployments (§3.3), the
	// NameNode vCPU/RAM, the concurrency level (§3.4), the instance
	// bounds, the subtree offload hop and the NameNode engine (CPU per
	// op, subtree batching, the metadata cache budget…). A pre-warm
	// (MinInstancesPerDeployment) has run its cold starts on the virtual
	// clock by the time NewCluster returns.
	core.SystemConfig

	// Platform shapes the FaaS substrate (resource pool, cold starts,
	// gateway latency, reclamation).
	Platform faas.Config
	// Store shapes the NDB-like persistent metadata store.
	Store ndb.Config
	// RPC shapes the hybrid HTTP/TCP client library (§3.2, Appendices
	// B-C).
	RPC rpc.Config
	// CoordinatorHop is the coordinator's one-way message latency.
	CoordinatorHop time.Duration
	// Clock is the virtual clock the cluster runs on; nil makes a fresh
	// one. Set it when parts built before the cluster must share its
	// clock (an ndb.Durable under Store, an admission registry under
	// Engine). A caller's clock is the caller's to close.
	Clock *clock.Sim

	// EnableTracing turns on the virtual-time distributed tracer: every
	// request carries a trace context through the RPC fabric, FaaS
	// platform, NameNode engine, and store, and platform/client lifecycle
	// transitions are recorded as structured events. Off by default (the
	// nil-context fast path costs nothing per request).
	EnableTracing bool
}

// DefaultConfig mirrors the paper's standard deployment: 16 deployments
// of 6.25-vCPU/30-GB NameNodes over a 4-data-node NDB cluster with a
// ZooKeeper coordinator.
func DefaultConfig() Config {
	return Config{
		SystemConfig:   core.DefaultSystemConfig(),
		Platform:       faas.DefaultConfig(),
		Store:          ndb.DefaultConfig(),
		RPC:            rpc.DefaultConfig(),
		CoordinatorHop: 500 * time.Microsecond,
	}
}

// Cluster is a running λFS metadata service.
type Cluster struct {
	cfg      Config
	clk      *clock.Sim
	db       *ndb.DB
	coord    *coordinator.ZK
	platform *faas.Platform
	sys      *core.System
	vm       *rpc.VM
	tracer   *trace.Tracer // nil when tracing is off
	registry *telemetry.Registry

	lambdaMeter      *metrics.LambdaMeter
	provisionedMeter *metrics.ProvisionedMeter
	ownsClock        bool // the cluster made clk, so Close stops it
	clientSeq        atomic.Uint64
	closed           atomic.Bool
}

// NewCluster starts a λFS cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Store.DataNodes < 1 && cfg.Store.Durable == nil {
		return nil, fmt.Errorf("lambdafs: the store has %d shards (Store.DataNodes); start from DefaultConfig", cfg.Store.DataNodes)
	}
	c := &Cluster{cfg: cfg, clk: cfg.Clock}
	if c.clk == nil {
		c.clk = clock.NewSim()
		c.ownsClock = true
	}

	// The telemetry plane is always on: every subsystem registers its
	// instruments here (counters and gauges are cheap atomics). A caller-
	// provided registry in any sub-config is honoured; otherwise the
	// cluster creates one, reachable via Telemetry().
	c.registry = cfg.Store.Metrics
	if c.registry == nil {
		c.registry = telemetry.NewRegistry()
	}
	cfg.Store.Metrics = c.registry
	cfg.Platform.Metrics = c.registry
	cfg.RPC.Metrics = c.registry
	cfg.Engine.Metrics = c.registry
	c.cfg = cfg

	c.db = ndb.New(c.clk, cfg.Store)

	coordCfg := coordinator.DefaultConfig()
	coordCfg.HopLatency = cfg.CoordinatorHop
	coordCfg.Metrics = c.registry
	coordCfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(c.db, id) }
	c.coord = coordinator.NewZK(c.clk, coordCfg)

	c.lambdaMeter = metrics.NewLambdaMeter(clock.Epoch)
	c.provisionedMeter = metrics.NewProvisionedMeter(clock.Epoch)
	if cfg.EnableTracing {
		c.tracer = trace.New(c.clk, trace.DefaultConfig())
	}
	pcfg := cfg.Platform
	pcfg.Lambda = c.lambdaMeter
	pcfg.Provisioned = c.provisionedMeter
	pcfg.Tracer = c.tracer
	// A pre-warm sleeps one cold start per instance, so registering the
	// deployments must run on the clock.
	clock.Run(c.clk, func() {
		c.platform = faas.New(c.clk, pcfg)
		c.sys = core.NewSystem(c.clk, c.db, c.coord, c.platform, cfg.SystemConfig)
	})
	c.vm = rpc.NewVM(c.clk, cfg.RPC)
	c.vm.SetTracer(c.tracer)

	// Cumulative cost, the paper's headline metric (Figures 8/12): both
	// billing models exposed side by side, sampled lazily at scrape time.
	c.registry.GaugeFunc("lambdafs_cost_payperuse_usd",
		func() float64 { return c.lambdaMeter.TotalUSD() })
	c.registry.GaugeFunc("lambdafs_cost_provisioned_usd",
		func() float64 { return c.provisionedMeter.TotalUSD() })
	return c, nil
}

// Telemetry exposes the cluster's metrics registry: every subsystem
// (store, platform, RPC fabric, engines, coordinator, cost meters)
// registers its lambdafs_* instruments here. Scrape it with
// telemetry.NewScraper or expose it with telemetry.Handler.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.registry }

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *clock.Sim { return c.clk }

// Store exposes the persistent metadata store.
func (c *Cluster) Store() *ndb.DB { return c.db }

// Platform exposes the FaaS platform (fault injection, scaling stats).
func (c *Cluster) Platform() *faas.Platform { return c.platform }

// System exposes the λFS core system (diagnostics).
func (c *Cluster) System() *core.System { return c.sys }

// VM exposes the default client VM (its TCP servers are shared by every
// client created with NewClient).
func (c *Cluster) VM() *rpc.VM { return c.vm }

// NewVM creates an additional client VM (clients on distinct VMs do not
// share TCP connections — Figure 4's sharing is per-VM).
func (c *Cluster) NewVM() *rpc.VM {
	vm := rpc.NewVM(c.clk, c.cfg.RPC)
	vm.SetTracer(c.tracer)
	return vm
}

// Meters exposes the cluster's cost meters: pay-per-use billing and the
// provisioned model priced on the same fleet.
func (c *Cluster) Meters() (*metrics.LambdaMeter, *metrics.ProvisionedMeter) {
	return c.lambdaMeter, c.provisionedMeter
}

// Tracer exposes the cluster's tracer (nil when Config.EnableTracing is
// false; a nil *trace.Tracer is safe to use as a no-op).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// Stats summarizes cluster-wide state.
type Stats struct {
	ActiveNameNodes int
	VCPUInUse       float64
	ColdStarts      uint64
	Invocations     uint64
	CacheHits       uint64
	CacheMisses     uint64
	Store           ndb.Stats
	PayPerUseUSD    float64
	ProvisionedUSD  float64
}

// Stats reads the cluster's counters out of the telemetry registry and its
// live pool state off the platform. The counters count for the cluster, not
// for its current NameNodes: they never decrease when instances are
// reclaimed or crash. The fields are read one after another, not at one
// common instant.
func (c *Cluster) Stats() Stats {
	hits, misses := c.sys.CacheStats()
	ps := c.platform.Stats()
	return Stats{
		ActiveNameNodes: c.platform.ActiveInstances(),
		VCPUInUse:       c.platform.VCPUInUse(),
		ColdStarts:      ps.ColdStarts,
		Invocations:     ps.Invocations,
		CacheHits:       hits,
		CacheMisses:     misses,
		Store:           c.db.Stats(),
		PayPerUseUSD:    c.lambdaMeter.TotalUSD(),
		ProvisionedUSD:  c.provisionedMeter.TotalUSD(),
	}
}

// Run executes fn as a clock-registered task and waits for it: on the
// default discrete-event clock, goroutines that sleep or pace against
// virtual time (custom workload drivers) must run inside Run. Client
// methods already do this internally; Run is for driver loops that call
// Clock().Sleep themselves.
func (c *Cluster) Run(fn func()) {
	clock.Run(c.clk, fn)
}

// Close shuts the cluster down: terminates every NameNode instance and,
// unless the caller supplied Config.Clock, stops the clock.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	// Teardown performs store transactions (coordinator deregistration);
	// run it registered on the clock.
	clock.Run(c.clk, c.platform.Close)
	if c.ownsClock {
		c.clk.Close()
	}
}
