package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"lambdafs"
	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/lsm"
	"lambdafs/internal/metrics"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
	"lambdafs/internal/telemetry"
	"lambdafs/internal/trace"
)

// stack is one full λFS deployment on a discrete-event clock: client VM →
// rpc → faas → core/cache → coordinator → ndb → WAL/lsm. It is wired the
// way lambdafs.NewCluster wires it, from the same constructors and
// lambdafs.DefaultConfig values; the public Config cannot carry an
// ndb.Durable (the media needs the cluster's own clock), so the benchmark
// builds the stack here — this one function is the only deployment shape
// any workload runs on.
type stack struct {
	sim      *clock.Sim
	reg      *telemetry.Registry
	storeCfg ndb.Config
	db       *ndb.DB
	platform *faas.Platform
	sys      *core.System
	vm       *rpc.VM
	tracer   *trace.Tracer // nil when the run is untraced
	lambda   *metrics.LambdaMeter
}

// traceCaps keeps every span of a traced run: the largest traced phase is
// a few tens of thousands of requests, far below these caps, and
// trace.dropped_spans reports it if that ever stops being true.
var traceCaps = trace.Config{MaxTraces: 1 << 22, MaxEvents: 1 << 22, MaxSpansPerTrace: 1 << 16}

// newStack builds the deployment. cacheBudget is the only knob that
// differs between workloads (0 = unlimited); seed feeds rpc.Config.Seed.
func newStack(seed int64, cacheBudget int64, traced bool) *stack {
	cfg := lambdafs.DefaultConfig()
	s := &stack{sim: clock.NewSim(), reg: telemetry.NewRegistry()}

	s.storeCfg = cfg.Store
	s.storeCfg.Metrics = s.reg
	s.storeCfg.Durable = ndb.NewDurable(s.sim, s.storeCfg.DataNodes, lsm.DefaultConfig())
	s.storeCfg.Durability = ndb.DefaultDurabilityConfig()
	s.db = ndb.New(s.sim, s.storeCfg)

	coordCfg := coordinator.DefaultConfig()
	coordCfg.HopLatency = cfg.CoordinatorHop
	coordCfg.Metrics = s.reg
	coordCfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(s.db, id) }
	coord := coordinator.NewZK(s.sim, coordCfg)

	s.lambda = metrics.NewLambdaMeter(clock.Epoch)
	if traced {
		s.tracer = trace.New(s.sim, traceCaps)
	}
	pcfg := cfg.Platform
	pcfg.Metrics = s.reg
	pcfg.Lambda = s.lambda
	pcfg.Provisioned = metrics.NewProvisionedMeter(clock.Epoch)
	pcfg.Tracer = s.tracer
	s.platform = faas.New(s.sim, pcfg)

	sysCfg := core.SystemConfig{
		Deployments:      cfg.Deployments,
		NameNodeVCPU:     cfg.NameNodeVCPU,
		NameNodeRAMGB:    cfg.NameNodeRAMGB,
		ConcurrencyLevel: cfg.ConcurrencyLevel,
		Engine:           cfg.Engine,
		OffloadLatency:   time.Millisecond,
	}
	sysCfg.Engine.Metrics = s.reg
	sysCfg.Engine.CacheBudget = cacheBudget
	s.sys = core.NewSystem(s.sim, s.db, coord, s.platform, sysCfg)

	rcfg := cfg.RPC
	rcfg.Metrics = s.reg
	rcfg.Seed = seed
	s.vm = rpc.NewVM(s.sim, rcfg)
	s.vm.SetTracer(s.tracer)
	return s
}

func (s *stack) newClient(id string) *rpc.Client {
	return s.vm.NewClient(id, s.sys.Ring(), s.sys)
}

// close tears the deployment down (teardown performs store transactions,
// so it runs registered on the clock) and stops the clock.
func (s *stack) close() {
	clock.Run(s.sim, s.platform.Close)
	s.sim.Close()
}

// storeDigest canonically hashes the committed namespace: every inode row
// sorted by ID. Must run registered on the clock (the walk is billed).
func storeDigest(db *ndb.DB) (string, error) {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return "", fmt.Errorf("walk store: %w", err)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	h := sha256.New()
	for _, n := range nodes {
		fmt.Fprintf(h, "%d %d %q %v %d %d %d\n", n.ID, n.ParentID, n.Name, n.IsDir, n.Perm, n.Size, len(n.Blocks))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// crashRecover abandons the live store, rebuilds one from the durable
// media and requires it to be digest-identical and internally consistent.
// Must run registered on the clock.
func (s *stack) crashRecover() (*ndb.RecoveryStats, error) {
	pre, err := storeDigest(s.db)
	if err != nil {
		return nil, err
	}
	recovered, stats, err := ndb.Recover(s.sim, s.storeCfg)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	post, err := storeDigest(recovered)
	if err != nil {
		return nil, err
	}
	if pre != post {
		return nil, fmt.Errorf("recovered store digest %s differs from pre-crash digest %s", post, pre)
	}
	if bad := recovered.CheckIntegrity(); len(bad) > 0 {
		return nil, fmt.Errorf("recovered store fails integrity: %s", bad[0])
	}
	return stats, nil
}

// counters is a flat reading of the telemetry registry, keyed as the
// scraper keys its series: counters and gauges under their exposition
// identity, histograms as name_count and name{quantile="0.5"}. The
// benchmark only reads the registry; it registers nothing.
type counters map[string]float64

func (s *stack) counters() counters {
	return telemetry.NewScraper(s.sim, s.reg, 0).ScrapeNow().Values
}
