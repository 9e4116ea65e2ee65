// Package infinicache approximates InfiniCache (FAST'20) repurposed as a
// metadata service, as used in the paper's evaluation (§5.1): a *static,
// fixed-size* deployment of cloud functions holding an in-memory cache,
// where every operation is a fresh HTTP invocation through the FaaS
// gateway ("short TCP connections that require invoking functions for
// every operation"). It therefore isolates two of λFS's contributions by
// ablation: no long-lived TCP RPC path, and no auto-scaling.
//
// It reuses the λFS NameNode engine inside the functions, so the only
// differences from λFS are architectural.
package infinicache

import (
	"sync/atomic"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
	"lambdafs/internal/store"
)

// Config shapes the static deployment.
type Config struct {
	// Deployments and InstancesPerDeployment fix the cache fleet size.
	Deployments            int
	InstancesPerDeployment int
	VCPU                   float64
	RAMGB                  float64
	ConcurrencyLevel       int
	Engine                 core.EngineConfig
}

// DefaultConfig mirrors the evaluation's InfiniCache setup.
func DefaultConfig() Config {
	return Config{
		Deployments:            16,
		InstancesPerDeployment: 1,
		VCPU:                   6.25,
		RAMGB:                  30,
		ConcurrencyLevel:       8,
		Engine:                 core.DefaultEngineConfig(),
	}
}

// System is the fixed-size serverless cache fleet.
type System struct {
	inner *core.System
}

// New registers the fixed deployments on the platform.
func New(clk *clock.Sim, st store.Store, coord coordinator.Coordinator,
	platform *faas.Platform, cfg Config) *System {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Deployments = cfg.Deployments
	sysCfg.NameNodeVCPU = cfg.VCPU
	sysCfg.NameNodeRAMGB = cfg.RAMGB
	sysCfg.ConcurrencyLevel = cfg.ConcurrencyLevel
	sysCfg.MaxInstancesPerDeployment = cfg.InstancesPerDeployment
	sysCfg.MinInstancesPerDeployment = cfg.InstancesPerDeployment
	sysCfg.Engine = cfg.Engine
	sysCfg.OffloadLatency = -1
	return &System{inner: core.NewSystem(clk, st, coord, platform, sysCfg)}
}

// Client invokes a function for every operation — no persistent TCP
// connections, no scaling signal beyond the fixed fleet.
type Client struct {
	id  string
	sys *System
	seq atomic.Uint64
}

// NewClient creates a client.
func (s *System) NewClient(id string) *Client {
	return &Client{id: id, sys: s}
}

// Do performs one metadata operation via HTTP invocation.
func (cl *Client) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	req := namespace.Request{
		Op: op, Path: path, Dest: dest,
		ClientID: cl.id, Seq: cl.seq.Add(1),
	}
	dep := cl.sys.inner.Ring().Route(op, path)
	v, err := cl.sys.inner.Invoke(dep, rpc.Payload{Req: req}) // no ReplyTo: no TCP back-connection
	if err != nil {
		return nil, err
	}
	resp, ok := v.(*namespace.Response)
	if !ok || resp == nil {
		return nil, namespace.ErrUnavailable
	}
	return resp, nil
}
