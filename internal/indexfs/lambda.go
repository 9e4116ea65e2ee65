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

// λIndexFS, the §5.7 OpenWhisk deployment: serverless caching functions
// in front of the LevelDB partitions (Figure 7b, lsm.DefaultConfig).
const (
	// lambdaDeployments is the number of function deployments; each owns
	// one LevelDB partition (matching the directory-hash partitioning).
	lambdaDeployments = 8
	// fnVCPU, fnRAMGB and fnConcurrency shape each function instance;
	// auto-scaling is uncapped.
	fnVCPU        = 2
	fnRAMGB       = 8
	fnConcurrency = 4
	// fnMinInstances pre-warms a floor of instances per deployment so no
	// deployment starves behind a fully-committed pool.
	fnMinInstances = 1
	// fnOpCPUCost is function CPU per metadata operation, calibrated to
	// fig16's λIndexFS curve like the servers' opCPUCost.
	fnOpCPUCost = 300 * time.Microsecond
)

// LambdaSystem is a running λIndexFS deployment.
type LambdaSystem struct {
	clk      *clock.Sim
	platform *faas.Platform
	ring     *partition.Ring
	lsms     []*lsm.DB
}

// NewLambda registers the λIndexFS function deployments.
func NewLambda(clk *clock.Sim, platform *faas.Platform) *LambdaSystem {
	s := &LambdaSystem{
		clk:      clk,
		platform: platform,
		ring:     partition.NewRing(lambdaDeployments, 0),
	}
	opts := faas.DeploymentOptions{
		VCPU:             fnVCPU,
		RAMGB:            fnRAMGB,
		ConcurrencyLevel: fnConcurrency,
		MinInstances:     fnMinInstances,
	}
	for range lambdaDeployments {
		s.lsms = append(s.lsms, lsm.New(clk, lsm.DefaultConfig()))
	}
	for _, db := range s.lsms {
		platform.Register("indexfn", func(inst *faas.Instance) faas.App {
			return newIndexFn(inst, db)
		}, opts)
	}
	return s
}

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
	inst *faas.Instance
	db   *lsm.DB

	mu    sync.Mutex
	cache map[string]Attr
}

var _ faas.App = (*indexFn)(nil)
var _ rpc.Server = (*indexFn)(nil)

func newIndexFn(inst *faas.Instance, db *lsm.DB) *indexFn {
	return &indexFn{inst: inst, db: db, cache: make(map[string]Attr)}
}

// Execute implements the rpc.Server (TCP) path. Cache hits cost half the
// CPU of a full LevelDB-path operation (no SSTable handling).
func (f *indexFn) Execute(req namespace.Request) *namespace.Response {
	switch req.Op {
	case namespace.OpCreate:
		f.inst.AcquireCPU(fnOpCPUCost)
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
			f.inst.AcquireCPU(fnOpCPUCost / 2)
		} else {
			f.inst.AcquireCPU(fnOpCPUCost)
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
	p, ok := payload.(*rpc.Payload)
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
