package indexfs

import (
	"sync"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
	"lambdafs/internal/rpc"
)

// LambdaConfig shapes λIndexFS: serverless caching functions in front of
// the LevelDB partitions (Figure 7b).
type LambdaConfig struct {
	// Deployments is the number of function deployments; each owns one
	// LevelDB partition (matching the directory-hash partitioning).
	Deployments      int
	VCPU             float64
	RAMGB            float64
	ConcurrencyLevel int
	// MaxInstancesPerDeployment caps auto-scaling (0 = unlimited).
	MaxInstancesPerDeployment int
	// MinInstancesPerDeployment pre-warms a floor of instances so no
	// deployment starves behind a fully-committed pool.
	MinInstancesPerDeployment int
	// OpCPUCost is function CPU per metadata operation.
	OpCPUCost time.Duration
	// LSM tunes the backing LevelDB partitions.
	LSM lsm.Config
}

// DefaultLambdaConfig matches the §5.7 OpenWhisk deployment.
func DefaultLambdaConfig() LambdaConfig {
	return LambdaConfig{
		Deployments:               8,
		VCPU:                      2,
		RAMGB:                     8,
		ConcurrencyLevel:          4,
		MinInstancesPerDeployment: 1,
		OpCPUCost:                 300 * time.Microsecond,
		LSM:                       lsm.DefaultConfig(),
	}
}

// LambdaSystem is a running λIndexFS deployment.
type LambdaSystem struct {
	clk      *clock.Sim
	platform *faas.Platform
	ring     *partition.Ring
	lsms     []*lsm.DB
	cfg      LambdaConfig
}

// NewLambda registers the λIndexFS function deployments.
func NewLambda(clk *clock.Sim, platform *faas.Platform, cfg LambdaConfig) *LambdaSystem {
	if cfg.Deployments <= 0 {
		cfg.Deployments = 1
	}
	s := &LambdaSystem{
		clk:      clk,
		platform: platform,
		ring:     partition.NewRing(cfg.Deployments, 0),
		cfg:      cfg,
	}
	for i := 0; i < cfg.Deployments; i++ {
		s.lsms = append(s.lsms, lsm.New(clk, cfg.LSM))
	}
	opts := faas.DeploymentOptions{
		VCPU:             cfg.VCPU,
		RAMGB:            cfg.RAMGB,
		ConcurrencyLevel: cfg.ConcurrencyLevel,
		MaxInstances:     cfg.MaxInstancesPerDeployment,
		MinInstances:     cfg.MinInstancesPerDeployment,
	}
	for i := 0; i < cfg.Deployments; i++ {
		db := s.lsms[i]
		platform.Register("indexfn", func(inst *faas.Instance) faas.App {
			return newIndexFn(inst, db, cfg.OpCPUCost)
		}, opts)
	}
	return s
}

// Ring exposes the partitioning (clients route with it).
func (s *LambdaSystem) Ring() *partition.Ring { return s.ring }

// Invoke implements rpc.Invoker.
func (s *LambdaSystem) Invoke(dep int, payload any) (any, error) {
	return s.platform.Invoke(dep, payload)
}

// NewClient creates a λIndexFS client on vm — λFS's client library
// operating on the tree-test op mapping (Mknod → OpCreate, Getattr →
// OpStat).
func (s *LambdaSystem) NewClient(vm *rpc.VM, id string) *LambdaClient {
	return &LambdaClient{inner: vm.NewClient(id, s.ring, s)}
}

// LambdaClient wraps the λFS client with tree-test verbs.
type LambdaClient struct {
	inner *rpc.Client
}

// Mknod creates the metadata row for path.
func (c *LambdaClient) Mknod(path string) error {
	resp, err := c.inner.Do(namespace.OpCreate, path, "")
	if err != nil {
		return err
	}
	return resp.Error()
}

// Getattr reads the metadata row for path.
func (c *LambdaClient) Getattr(path string) (Attr, bool, error) {
	resp, err := c.inner.Do(namespace.OpStat, path, "")
	if err != nil {
		return Attr{}, false, err
	}
	if !resp.OK() {
		if resp.Err == namespace.ErrNotFound.Error() {
			return Attr{}, false, nil
		}
		return Attr{}, false, resp.Error()
	}
	return Attr{Mode: uint32(resp.Stat.Perm), Size: resp.Stat.Size, Ctime: resp.Stat.Ctime.UnixNano()}, true, nil
}

// Stats exposes the wrapped client's RPC counters.
func (c *LambdaClient) Stats() rpc.ClientStats { return c.inner.Stats() }

// indexFn is the serverless function body: an in-memory attr cache over
// one LevelDB partition. tree-test workloads are create-then-read with no
// overwrites, so cached attrs never go stale; the cache therefore needs
// no cross-instance coherence (the full λFS coherence protocol would be
// layered exactly as in internal/core if overwrites were in scope).
type indexFn struct {
	inst    *faas.Instance
	db      *lsm.DB
	cpuCost time.Duration

	mu    sync.Mutex
	cache map[string]Attr
}

var _ faas.App = (*indexFn)(nil)
var _ rpc.Server = (*indexFn)(nil)

func newIndexFn(inst *faas.Instance, db *lsm.DB, cpuCost time.Duration) *indexFn {
	return &indexFn{inst: inst, db: db, cpuCost: cpuCost, cache: make(map[string]Attr)}
}

// Execute implements the rpc.Server (TCP) path. Cache hits cost half the
// CPU of a full LevelDB-path operation (no SSTable handling).
func (f *indexFn) Execute(req namespace.Request) *namespace.Response {
	switch req.Op {
	case namespace.OpCreate:
		f.inst.AcquireCPU(f.cpuCost)
		attr := Attr{Mode: 0o644}
		f.db.Put(req.Path, encodeAttr(attr))
		f.mu.Lock()
		f.cache[req.Path] = attr
		f.mu.Unlock()
		return &namespace.Response{}
	case namespace.OpStat:
		f.mu.Lock()
		attr, ok := f.cache[req.Path]
		f.mu.Unlock()
		hit := ok
		if hit {
			f.inst.AcquireCPU(f.cpuCost / 2)
		} else {
			f.inst.AcquireCPU(f.cpuCost)
		}
		if !ok {
			raw, found := f.db.Get(req.Path)
			if !found {
				return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
			}
			attr, ok = decodeAttr(raw)
			if !ok {
				return &namespace.Response{Err: namespace.ToWire(namespace.ErrInvalidState)}
			}
			f.mu.Lock()
			f.cache[req.Path] = attr
			f.mu.Unlock()
		}
		stat := namespace.StatInfo{Path: req.Path, Perm: namespace.Permission(attr.Mode), Size: attr.Size}
		return &namespace.Response{Stat: &stat, CacheHit: hit}
	}
	return &namespace.Response{Err: namespace.ToWire(namespace.ErrInvalidState)}
}

// HandleInvoke implements the HTTP path and connects back to the client's
// TCP server, exactly like a λFS NameNode.
func (f *indexFn) HandleInvoke(payload any) any {
	p, ok := payload.(rpc.Payload)
	if !ok {
		return nil
	}
	resp := f.Execute(p.Req)
	if p.ReplyTo != nil {
		p.ReplyTo.Offer(f.inst.DeploymentIndex(), rpc.NewConn(f.inst, f))
	}
	return resp
}

// Shutdown has nothing to tear down (cache dies with the instance).
func (f *indexFn) Shutdown(bool) {}
