// Package cephfs is a behavioral model of CephFS's metadata service, one
// of the evaluation's comparators (§5.1, §5.3). It is *not* a CephFS
// reimplementation: the paper uses CephFS only as a baseline whose
// distinguishing properties are (a) a fixed MDS cluster with dynamic
// subtree partitioning, (b) a client "capabilities" system that lets
// clients serve repeated reads locally and makes write issuance cheap,
// and (c) a journal (RADOS) write on mutations. Those are the properties
// the paper invokes to explain CephFS's curves — fast at small client
// counts, flat once the fixed MDS cluster saturates, strongest write
// throughput — and they are exactly what this model implements.
//
// See DESIGN.md's substitution table.
//
// # Concurrency and ownership
//
// A System is safe for concurrent use by many Clients: the namespace
// tree is guarded by the System-wide mutex and the Stats counters are
// atomics readable without it. Capability caches live on each Client
// under the Client's own mutex — they must, because a *writer's* op
// revokes capabilities by reaching into every other client's cache
// (dropCap) from the writer's goroutine. Each modeled MDS is a clock.Queue
// over its vCPUs (no goroutines: a request reserves its slot and sleeps
// through it); capacity is charged only through that queue, never while
// the System mutex is held. Lock order is therefore System.mu before
// Client.mu, and MDS service time is outside both.
package cephfs

import (
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
)

// Config shapes the model.
type Config struct {
	// MDSServers is the fixed metadata cluster size.
	MDSServers int
	// VCPUPerMDS is each server's compute capacity.
	VCPUPerMDS float64
	// ReadCPUCost / WriteCPUCost are per-op MDS CPU costs. CephFS's
	// capability system makes write issuance cheaper than the
	// lock-heavy HopsFS/λFS write path (§5.3.1).
	ReadCPUCost  time.Duration
	WriteCPUCost time.Duration
	// CapRevokeCost is MDS CPU per client capability revoked on a write.
	CapRevokeCost time.Duration
	// JournalLatency is the RADOS journal flush per mutation.
	JournalLatency time.Duration
	// NetOneWay is the client↔MDS latency.
	NetOneWay time.Duration
}

// capHitCost is the client-side cost of serving a read from a held
// capability (local cache lookup + permission check).
const capHitCost = 30 * time.Microsecond

// DefaultConfig matches the evaluation-scale CephFS deployment.
func DefaultConfig() Config {
	return Config{
		MDSServers:     8,
		VCPUPerMDS:     16,
		ReadCPUCost:    1200 * time.Microsecond,
		WriteCPUCost:   800 * time.Microsecond,
		CapRevokeCost:  30 * time.Microsecond,
		JournalLatency: time.Millisecond,
		NetOneWay:      200 * time.Microsecond,
	}
}

type inode struct {
	id    namespace.INodeID
	name  string
	isDir bool
	size  int64
	mtime time.Time
	// caps holds the clients with a read capability on this inode; a
	// write must revoke them, which drops the client-side cached attrs.
	caps map[*Client]bool
	kids map[string]*inode
}

// System is the modelled CephFS metadata service.
type System struct {
	clk *clock.Sim
	cfg Config

	mu     sync.Mutex
	root   *inode
	nextID atomic.Uint64

	servers []*clock.Queue // one vCPU queue per MDS, bounding its throughput
	stats   Stats
}

// Stats counts model activity.
type Stats struct {
	CapHits     atomic.Uint64
	MDSOps      atomic.Uint64
	Revocations atomic.Uint64
}

// New builds the system with an empty namespace.
func New(clk *clock.Sim, cfg Config) *System {
	if cfg.MDSServers <= 0 {
		cfg.MDSServers = 1
	}
	s := &System{
		clk: clk,
		cfg: cfg,
		root: &inode{
			id: namespace.RootID, isDir: true,
			caps: map[*Client]bool{}, kids: map[string]*inode{},
		},
	}
	s.nextID.Store(uint64(namespace.RootID))
	for i := 0; i < cfg.MDSServers; i++ {
		s.servers = append(s.servers, clock.NewCPUQueue(clk, cfg.VCPUPerMDS))
	}
	return s
}

// mdsFor implements (static) subtree partitioning: the top-level
// directory selects the authoritative MDS.
func (s *System) mdsFor(path string) *clock.Queue {
	comps := namespace.SplitPath(path)
	var h uint32 = 2166136261
	if len(comps) > 0 {
		for i := 0; i < len(comps[0]); i++ {
			h = (h ^ uint32(comps[0][i])) * 16777619
		}
	}
	return s.servers[h%uint32(len(s.servers))]
}

// lookup walks the in-memory tree, returning nil when a component is
// missing; caller holds s.mu.
func (s *System) lookup(comps []string) *inode {
	cur := s.root
	for _, c := range comps {
		if cur = cur.kids[c]; cur == nil {
			return nil
		}
	}
	return cur
}

// Client is a CephFS client holding capabilities.
type Client struct {
	id  string
	sys *System

	mu    sync.Mutex
	caps  map[string]namespace.StatInfo  // path -> cached attrs under a cap
	byIno map[namespace.INodeID][]string // reverse index for revocation
}

// NewClient creates a client.
func (s *System) NewClient(id string) *Client {
	return &Client{
		id: id, sys: s,
		caps:  make(map[string]namespace.StatInfo),
		byIno: make(map[namespace.INodeID][]string),
	}
}

// dropCap removes the client-side cached attributes for an inode whose
// capability was revoked.
func (c *Client) dropCap(id namespace.INodeID) {
	c.mu.Lock()
	for _, p := range c.byIno[id] {
		delete(c.caps, p)
	}
	delete(c.byIno, id)
	c.mu.Unlock()
}

// Do executes one metadata operation.
func (c *Client) Do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return &namespace.Response{Err: namespace.ToWire(err)}, nil
	}
	switch op {
	case namespace.OpStat, namespace.OpRead:
		return c.read(p, op), nil
	case namespace.OpLs:
		return c.ls(p), nil
	case namespace.OpCreate:
		return c.write(p, false), nil
	case namespace.OpMkdirs:
		return c.write(p, true), nil
	case namespace.OpDelete:
		return c.delete(p), nil
	case namespace.OpMv:
		d, derr := namespace.CleanPath(dest)
		if derr != nil {
			return &namespace.Response{Err: namespace.ToWire(derr)}, nil
		}
		return c.mv(p, d), nil
	}
	return &namespace.Response{Err: namespace.ToWire(namespace.ErrInvalidState)}, nil
}

// read serves stat/read: locally under a capability, otherwise via the
// authoritative MDS (which grants the capability).
func (c *Client) read(path string, op namespace.OpType) *namespace.Response {
	c.mu.Lock()
	if st, ok := c.caps[path]; ok {
		c.mu.Unlock()
		c.sys.stats.CapHits.Add(1)
		c.sys.clk.Sleep(capHitCost)
		if op == namespace.OpRead && st.IsDir {
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrIsDir)}
		}
		stat := st
		return &namespace.Response{ID: st.ID, Stat: &stat, CacheHit: true}
	}
	c.mu.Unlock()

	s := c.sys
	s.clk.Sleep(s.cfg.NetOneWay)
	m := s.mdsFor(path)
	m.Acquire(s.cfg.ReadCPUCost)
	s.stats.MDSOps.Add(1)

	s.mu.Lock()
	n := s.lookup(namespace.SplitPath(path))
	if n == nil {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
	}
	if op == namespace.OpRead && n.isDir {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrIsDir)}
	}
	stat := namespace.StatInfo{
		ID: n.id, Path: path, IsDir: n.isDir, Size: n.size, Mtime: n.mtime,
	}
	n.caps[c] = true
	s.mu.Unlock()

	c.mu.Lock()
	c.caps[path] = stat
	c.byIno[stat.ID] = append(c.byIno[stat.ID], path)
	c.mu.Unlock()
	s.clk.Sleep(s.cfg.NetOneWay)
	return &namespace.Response{ID: stat.ID, Stat: &stat}
}

// ls lists a directory at the MDS (listings are not capability-cached in
// the model).
func (c *Client) ls(path string) *namespace.Response {
	s := c.sys
	s.clk.Sleep(s.cfg.NetOneWay)
	m := s.mdsFor(path)
	m.Acquire(s.cfg.ReadCPUCost)
	s.stats.MDSOps.Add(1)
	defer s.clk.Sleep(s.cfg.NetOneWay)

	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.lookup(namespace.SplitPath(path))
	if n == nil {
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
	}
	if !n.isDir {
		stat := namespace.StatInfo{ID: n.id, Path: path, Size: n.size}
		return &namespace.Response{ID: n.id, Stat: &stat, Entries: []namespace.DirEntry{
			{Name: namespace.BaseName(path), ID: n.id, Size: n.size},
		}}
	}
	entries := make([]namespace.DirEntry, 0, len(n.kids))
	for name, kid := range n.kids {
		entries = append(entries, namespace.DirEntry{Name: name, ID: kid.id, IsDir: kid.isDir, Size: kid.size})
	}
	return &namespace.Response{ID: n.id, Entries: entries}
}

// revokeLocked revokes every capability on n and returns the MDS CPU the
// caller owes for it; caller holds s.mu.
func (s *System) revokeLocked(n *inode) time.Duration {
	if len(n.caps) == 0 {
		return 0
	}
	cost := time.Duration(len(n.caps)) * s.cfg.CapRevokeCost
	s.stats.Revocations.Add(uint64(len(n.caps)))
	for cl := range n.caps {
		cl.dropCap(n.id)
	}
	n.caps = map[*Client]bool{}
	return cost
}

// revokeSubtreeLocked revokes every capability on n and on everything
// below it, since a delete or mv of n changes every path under it, and
// returns the MDS CPU the caller owes; caller holds s.mu.
func (s *System) revokeSubtreeLocked(n *inode) time.Duration {
	cost := s.revokeLocked(n)
	for _, kid := range n.kids {
		cost += s.revokeSubtreeLocked(kid)
	}
	return cost
}

// write creates a file or directory chain.
func (c *Client) write(path string, dir bool) *namespace.Response {
	s := c.sys
	s.clk.Sleep(s.cfg.NetOneWay)
	m := s.mdsFor(path)
	m.Acquire(s.cfg.WriteCPUCost)
	s.stats.MDSOps.Add(1)

	s.mu.Lock()
	comps := namespace.SplitPath(path)
	if len(comps) == 0 {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		if dir {
			return &namespace.Response{ID: namespace.RootID}
		}
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrExists)}
	}
	cur := s.root
	var revoke time.Duration
	for i, comp := range comps {
		last := i == len(comps)-1
		next := cur.kids[comp]
		if next == nil {
			if !last && !dir {
				s.mu.Unlock()
				s.clk.Sleep(s.cfg.NetOneWay)
				return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
			}
			next = &inode{
				id:    namespace.INodeID(s.nextID.Add(1)),
				name:  comp,
				isDir: dir || !last,
				mtime: s.clk.Now(),
				caps:  map[*Client]bool{},
				kids:  map[string]*inode{},
			}
			cur.kids[comp] = next
			revoke += s.revokeLocked(cur) // parent attrs changed
		} else if last {
			if dir && next.isDir {
				id := next.id
				s.mu.Unlock()
				s.clk.Sleep(s.cfg.NetOneWay)
				return &namespace.Response{ID: id}
			}
			s.mu.Unlock()
			s.clk.Sleep(s.cfg.NetOneWay)
			return &namespace.Response{Err: namespace.ToWire(namespace.ErrExists)}
		} else if !next.isDir {
			// A file on the chain: mkdirs and a create whose parent it is
			// answer ErrNotDir; a create above it has no parent to find.
			err := namespace.ErrNotDir
			if !dir && i < len(comps)-2 {
				err = namespace.ErrNotFound
			}
			s.mu.Unlock()
			s.clk.Sleep(s.cfg.NetOneWay)
			return &namespace.Response{Err: namespace.ToWire(err)}
		}
		cur = next
	}
	id := cur.id
	s.mu.Unlock()

	m.Acquire(revoke)
	s.clk.Sleep(s.cfg.JournalLatency)
	s.clk.Sleep(s.cfg.NetOneWay)
	return &namespace.Response{ID: id}
}

// delete removes a file or an entire directory subtree.
func (c *Client) delete(path string) *namespace.Response {
	s := c.sys
	s.clk.Sleep(s.cfg.NetOneWay)
	m := s.mdsFor(path)
	m.Acquire(s.cfg.WriteCPUCost)
	s.stats.MDSOps.Add(1)

	s.mu.Lock()
	comps := namespace.SplitPath(path)
	if len(comps) == 0 {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrPermission)}
	}
	parent := s.lookup(comps[:len(comps)-1])
	if parent == nil || !parent.isDir {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
	}
	name := comps[len(comps)-1]
	target := parent.kids[name]
	if target == nil {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrNotFound)}
	}
	revoke := s.revokeSubtreeLocked(target) + s.revokeLocked(parent)
	delete(parent.kids, name)
	s.mu.Unlock()

	m.Acquire(revoke)
	s.clk.Sleep(s.cfg.JournalLatency)
	s.clk.Sleep(s.cfg.NetOneWay)
	return &namespace.Response{}
}

// mv relinks a file or directory.
func (c *Client) mv(src, dest string) *namespace.Response {
	if namespace.HasPathPrefix(dest, src) && src != "/" {
		return &namespace.Response{Err: namespace.ToWire(namespace.ErrMvIntoSelf)}
	}
	s := c.sys
	s.clk.Sleep(s.cfg.NetOneWay)
	m := s.mdsFor(src)
	m.Acquire(s.cfg.WriteCPUCost)
	s.stats.MDSOps.Add(1)

	s.mu.Lock()
	target, srcParent, dstParent, err := s.mvTargetsLocked(src, dest)
	if err != nil {
		s.mu.Unlock()
		s.clk.Sleep(s.cfg.NetOneWay)
		return &namespace.Response{Err: namespace.ToWire(err)}
	}
	revoke := s.revokeSubtreeLocked(target) + s.revokeLocked(srcParent) + s.revokeLocked(dstParent)
	delete(srcParent.kids, target.name)
	target.name = namespace.BaseName(dest)
	dstParent.kids[target.name] = target
	s.mu.Unlock()

	m.Acquire(revoke)
	s.clk.Sleep(s.cfg.JournalLatency)
	s.clk.Sleep(s.cfg.NetOneWay)
	return &namespace.Response{ID: target.id}
}

// mvTargetsLocked resolves a mv's source and both parents, or answers the
// first of chaos.Oracle's error classes that applies: the source must
// exist, the destination must not, and the destination's parent must be
// a directory. Caller holds s.mu.
func (s *System) mvTargetsLocked(src, dest string) (target, srcParent, dstParent *inode, err error) {
	sc := namespace.SplitPath(src)
	dc := namespace.SplitPath(dest)
	if len(sc) == 0 || len(dc) == 0 {
		return nil, nil, nil, namespace.ErrPermission
	}
	if srcParent = s.lookup(sc[:len(sc)-1]); srcParent != nil {
		target = srcParent.kids[sc[len(sc)-1]]
	}
	dstParent = s.lookup(dc[:len(dc)-1])
	switch {
	case target == nil:
		err = namespace.ErrNotFound
	case s.lookup(dc) != nil:
		err = namespace.ErrExists
	case dstParent == nil:
		err = namespace.ErrNotFound
	case !dstParent.isDir:
		err = namespace.ErrNotDir
	}
	return target, srcParent, dstParent, err
}

// Preload bulk-creates directories and files without charging the
// latency model (benchmark setup).
func (s *System) Preload(dirs, files []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	insert := func(path string, isDir bool) {
		comps := namespace.SplitPath(path)
		cur := s.root
		for i, comp := range comps {
			next := cur.kids[comp]
			if next == nil {
				next = &inode{
					id:    namespace.INodeID(s.nextID.Add(1)),
					name:  comp,
					isDir: isDir || i < len(comps)-1,
					caps:  map[*Client]bool{},
					kids:  map[string]*inode{},
				}
				cur.kids[comp] = next
			}
			cur = next
		}
	}
	for _, d := range dirs {
		insert(d, true)
	}
	for _, f := range files {
		insert(f, false)
	}
}
