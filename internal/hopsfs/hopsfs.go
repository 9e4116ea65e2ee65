// Package hopsfs implements the serverful baselines of the evaluation:
//
//   - HopsFS: a statically-fixed cluster of *stateless* NameNodes in front
//     of the shared NDB store (§2, Figure 1b). Every metadata operation
//     resolves against the store; clients spread requests round-robin.
//   - HopsFS+Cache: the same cluster with each NameNode augmented by a
//     λFS-style metadata cache; clients route with λFS's own
//     partition.Ring.Route (consistent hashing of the parent directory,
//     a listing with its children) so each NameNode owns a namespace
//     partition (§5.1). Coherence runs over the same Coordinator
//     protocol.
//
// Both reuse core.Engine, so the comparison against λFS isolates the
// architecture (elastic serverless vs fixed serverful) rather than the
// implementation. A NameNode's compute capacity is the same clock.Queue
// over its vCPUs that a function instance has.
package hopsfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// Config shapes a HopsFS cluster.
type Config struct {
	// NameNodes is the fixed cluster size.
	NameNodes int
	// VCPUPerNameNode is each server's compute capacity (evaluation: 16).
	VCPUPerNameNode float64
	// RPCHandlers bounds concurrent requests per NameNode (evaluation:
	// 200).
	RPCHandlers int
	// RPCOneWay is the client↔NameNode network latency (serverful TCP).
	RPCOneWay time.Duration
	// WithCache enables the HopsFS+Cache variant.
	WithCache bool
	// Engine tunes the per-NameNode engine. CacheBudget is forced
	// negative (disabled) unless WithCache is set.
	Engine core.EngineConfig
}

// DefaultConfig matches the evaluation's HopsFS deployment.
func DefaultConfig() Config {
	eng := core.DefaultEngineConfig()
	return Config{
		NameNodes:       32,
		VCPUPerNameNode: 16,
		RPCHandlers:     200,
		RPCOneWay:       300 * time.Microsecond,
		Engine:          eng,
	}
}

// NameNode is one serverful metadata server.
type NameNode struct {
	id       string
	eng      *core.Engine
	handlers *clock.Mailbox[struct{}] // one token per free RPC handler
}

// nameNodeCPU is a serverful NameNode's compute capacity as a core.CPU: a
// fixed vCPU queue like a function instance's, minus the lifecycle —
// NameNodes never terminate.
type nameNodeCPU struct{ *clock.Queue }

func (c nameNodeCPU) AcquireCPU(d time.Duration) { c.Acquire(d) }

// Cluster is a running HopsFS (or HopsFS+Cache) deployment.
type Cluster struct {
	clk   *clock.Sim
	cfg   Config
	nns   []*NameNode
	ring  *partition.Ring // only with cache
	coord coordinator.Coordinator
}

// New starts the cluster. coord may be nil for the cache-less variant
// (stateless NameNodes need no coherence); with WithCache a Coordinator
// is required.
func New(clk *clock.Sim, st store.Store, coord coordinator.Coordinator, cfg Config) *Cluster {
	if cfg.NameNodes <= 0 {
		cfg.NameNodes = 1
	}
	c := &Cluster{clk: clk, cfg: cfg, coord: coord}
	eng := cfg.Engine
	if eng.Metrics == nil {
		eng.Metrics = telemetry.NewRegistry() // one for the cluster, not one per engine
	}
	var ring *partition.Ring
	if cfg.WithCache {
		ring = partition.NewRing(cfg.NameNodes, 0)
		c.ring = ring
	} else {
		eng.CacheBudget = -1 // stateless
	}
	for i := 0; i < cfg.NameNodes; i++ {
		id := fmt.Sprintf("hops-nn%d", i)
		dep := -1
		var nnRing *partition.Ring
		var nnCoord coordinator.Coordinator
		if cfg.WithCache {
			dep = i
			nnRing = ring
			nnCoord = coord
		}
		cpu := nameNodeCPU{clock.NewCPUQueue(clk, cfg.VCPUPerNameNode)}
		engine := core.NewEngine(id, dep, clk, st, nnRing, nnCoord, cpu, eng)
		nn := &NameNode{id: id, eng: engine, handlers: clock.NewMailbox[struct{}](clk)}
		for h := 0; h < cfg.RPCHandlers; h++ {
			nn.handlers.Send(struct{}{})
		}
		if nnCoord != nil {
			nnCoord.Register(dep, id, engine.HandleInvalidation)
		}
		c.nns = append(c.nns, nn)
		if coord != nil {
			coord.TryLead("hopsfs-leader", id)
		}
	}
	return c
}

// Serve executes one request on the NameNode, bounded by its RPC handler
// pool.
func (nn *NameNode) Serve(req namespace.Request) *namespace.Response {
	nn.handlers.Recv()
	defer nn.handlers.Send(struct{}{})
	return nn.eng.Execute(req)
}

// Engine exposes the NameNode's engine (diagnostics).
func (nn *NameNode) Engine() *core.Engine { return nn.eng }

// NameNodes returns the cluster size.
func (c *Cluster) NameNodes() int { return len(c.nns) }

// Leader returns the elected leader NameNode's ID ("" without a
// Coordinator).
func (c *Cluster) Leader() string {
	if c.coord == nil {
		return ""
	}
	return c.coord.Leader("hopsfs-leader")
}

// TotalVCPU reports the cluster's provisioned compute (for cost
// accounting).
func (c *Cluster) TotalVCPU() int {
	return int(float64(len(c.nns)) * c.cfg.VCPUPerNameNode)
}

// Client issues metadata operations against the cluster: round-robin for
// stateless HopsFS, consistent-hash routing for HopsFS+Cache.
type Client struct {
	id  string
	c   *Cluster
	rr  atomic.Uint64
	seq atomic.Uint64
}

// NewClient creates a client.
func (c *Cluster) NewClient(id string) *Client {
	return &Client{id: id, c: c}
}

// Do executes one operation.
func (cl *Client) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	req := namespace.Request{
		Op: op, Path: path, Dest: dest,
		ClientID: cl.id, Seq: cl.seq.Add(1),
	}
	var nn *NameNode
	if cl.c.ring != nil {
		nn = cl.c.nns[cl.c.ring.Route(op, path)]
	} else {
		nn = cl.c.nns[int(cl.rr.Add(1))%len(cl.c.nns)]
	}
	cl.c.clk.Sleep(cl.c.cfg.RPCOneWay)
	resp := nn.Serve(req)
	cl.c.clk.Sleep(cl.c.cfg.RPCOneWay)
	return resp, nil
}
