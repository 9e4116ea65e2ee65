package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/faas"
	"lambdafs/internal/partition"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// SystemConfig assembles a λFS metadata service.
type SystemConfig struct {
	// Deployments is n, the number of serverless NameNode deployments
	// the namespace is partitioned across.
	Deployments int
	// NameNodeVCPU / NameNodeRAMGB shape each function instance (the
	// evaluation default is 6.25 vCPU / 30 GB; the Spotify workload uses
	// 5 vCPU / 6 GB).
	NameNodeVCPU  float64
	NameNodeRAMGB float64
	// ConcurrencyLevel is the per-instance HTTP concurrency (§3.4's
	// coarse-grained scaling control).
	ConcurrencyLevel int
	// MaxInstancesPerDeployment caps intra-deployment auto-scaling
	// (Figure 14: 1 = no auto-scaling, 2–3 = limited, 0 = unlimited).
	MaxInstancesPerDeployment int
	// MinInstancesPerDeployment pre-warms instances.
	MinInstancesPerDeployment int
	// Engine tunes each NameNode's engine. An engine that caches nothing
	// (CacheBudget < 0) runs no coherence protocol: it gets no
	// coordinator, since it holds nothing to invalidate.
	Engine EngineConfig
	// OffloadLatency is the network hop cost of pushing a subtree batch
	// to a helper NameNode; offloading is disabled when negative.
	OffloadLatency time.Duration
}

// DefaultSystemConfig matches the evaluation's standard λFS deployment.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Deployments:      16,
		NameNodeVCPU:     6.25,
		NameNodeRAMGB:    30,
		ConcurrencyLevel: 4,
		Engine:           DefaultEngineConfig(),
		OffloadLatency:   time.Millisecond,
	}
}

// System is a running λFS metadata service: n NameNode deployments on a
// FaaS platform over a shared persistent store and Coordinator.
type System struct {
	clk      *clock.Sim
	st       store.Store
	coord    coordinator.Coordinator
	platform *faas.Platform
	ring     *partition.Ring
	cfg      SystemConfig
	deps     []*faas.Deployment
	nnSeq    atomic.Uint64
	offloadN atomic.Uint64
	tel      coreTelemetry // the instruments every engine of this system bumps
}

// NewSystem registers the NameNode deployments on the platform. The
// caller owns the platform, store, and coordinator lifecycles.
func NewSystem(clk *clock.Sim, st store.Store, coord coordinator.Coordinator,
	platform *faas.Platform, cfg SystemConfig) *System {
	if cfg.Deployments <= 0 {
		cfg.Deployments = 1
	}
	if cfg.Engine.Metrics == nil {
		cfg.Engine.Metrics = telemetry.NewRegistry()
	}
	s := &System{
		clk: clk, st: st, coord: coord, platform: platform,
		ring: partition.NewRing(cfg.Deployments, 0),
		cfg:  cfg,
		tel:  newCoreTelemetry(cfg.Engine.Metrics),
	}
	opts := faas.DeploymentOptions{
		VCPU:             cfg.NameNodeVCPU,
		RAMGB:            cfg.NameNodeRAMGB,
		ConcurrencyLevel: cfg.ConcurrencyLevel,
		MaxInstances:     cfg.MaxInstancesPerDeployment,
		MinInstances:     cfg.MinInstancesPerDeployment,
	}
	for i := 0; i < cfg.Deployments; i++ {
		dep := i
		s.deps = append(s.deps, platform.Register(
			fmt.Sprintf("namenode%d", dep),
			func(inst *faas.Instance) faas.App { return s.newNameNode(dep, inst) },
			opts,
		))
	}
	return s
}

func (s *System) newNameNode(dep int, inst *faas.Instance) faas.App {
	coord := s.coord
	if s.cfg.Engine.CacheBudget < 0 {
		coord = nil // nothing cached, so nothing to invalidate
	}
	eng := NewEngine(inst.ID(), dep, s.clk, s.st, s.ring, coord, inst, s.cfg.Engine)
	if s.cfg.OffloadLatency >= 0 {
		eng.SetOffloader(s)
	}
	return NewNameNode(eng, inst, s.coord)
}

// Invoke implements rpc.Invoker: HTTP-RPC via the platform gateway.
func (s *System) Invoke(dep int, payload any) (any, error) {
	return s.platform.Invoke(dep, payload)
}

// Ring exposes the namespace partitioning.
func (s *System) Ring() *partition.Ring { return s.ring }

// Platform exposes the FaaS platform (fault injection, stats).
func (s *System) Platform() *faas.Platform { return s.platform }

// Store exposes the persistent metadata store.
func (s *System) Store() store.Store { return s.st }

// OffloadBatch implements Offloader: run fn on a warm helper instance of
// another deployment, paying one network hop each way (Appendix D).
func (s *System) OffloadBatch(excludeDep int, fn func(cpu CPU)) bool {
	n := len(s.deps)
	if n <= 1 {
		return false
	}
	start := int(s.offloadN.Add(1)) % n
	for i := 0; i < n; i++ {
		dep := (start + i) % n
		if dep == excludeDep {
			continue
		}
		warm := s.deps[dep].Warm()
		if len(warm) == 0 {
			continue
		}
		inst := warm[int(s.offloadN.Load())%len(warm)]
		clock.Go(s.clk, func() {
			s.clk.Sleep(s.cfg.OffloadLatency)
			_, err := inst.Serve(func() any {
				fn(inst)
				return nil
			})
			if err != nil {
				// Helper died mid-batch: run locally as fallback.
				fn(nopCPU{})
			}
			s.clk.Sleep(s.cfg.OffloadLatency)
		})
		return true
	}
	return false
}

// CacheStats reads the metadata-cache hit/miss counters out of the registry
// (SystemConfig.Engine.Metrics): every engine this system ever started
// counts there, so the totals outlive reclaimed and crashed NameNodes.
func (s *System) CacheStats() (hits, misses uint64) {
	return uint64(s.tel.hits.Value()), uint64(s.tel.misses.Value())
}
