// Package indexfs implements the portability study of §5.7: IndexFS, a
// scaled-out metadata middleware whose servers pack metadata into
// LevelDB SSTables (here internal/lsm), and λIndexFS, the λFS port that
// moves in-memory metadata handling into serverless functions and demotes
// LevelDB to a persistent store only (Figure 7).
//
// Namespace partitioning follows the paper's "alternative partitioning
// scheme" developed with the IndexFS authors: directories are hashed by
// parent-directory name across the LevelDB partitions, which is the same
// consistent hash λFS uses — so the λIndexFS port reuses λFS's client
// library (internal/rpc) and FaaS platform unchanged.
//
// The workload interface is IndexFS's tree-test: Mknod (create a file
// metadata row) and Getattr (read it back). A vanilla server's compute
// capacity is a clock.Queue over its vCPUs; a λIndexFS function's is its
// faas.Instance's.
package indexfs

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/lsm"
	"lambdafs/internal/namespace"
	"lambdafs/internal/partition"
)

// Attr is the per-file metadata row (a compact stand-in for IndexFS's
// packed inode attributes).
type Attr struct {
	Mode  uint32
	Size  int64
	Ctime int64
}

func encodeAttr(a Attr) []byte {
	buf := make([]byte, 20)
	binary.LittleEndian.PutUint32(buf[0:4], a.Mode)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(a.Size))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(a.Ctime))
	return buf
}

func decodeAttr(b []byte) (Attr, bool) {
	if len(b) != 20 {
		return Attr{}, false
	}
	return Attr{
		Mode:  binary.LittleEndian.Uint32(b[0:4]),
		Size:  int64(binary.LittleEndian.Uint64(b[4:12])),
		Ctime: int64(binary.LittleEndian.Uint64(b[12:20])),
	}, true
}

// A vanilla IndexFS deployment, the §5.7 testbed shape: servers
// co-located with the client VMs, each owning one LevelDB partition
// (lsm.DefaultConfig).
const (
	// servers is the deployment's size: the paper uses 4.
	servers = 4
	// vcpuPerServer is each server's compute capacity. IndexFS servers
	// are co-located with the client VMs (§5.7's "co-location
	// principle"), so each gets only part of a VM.
	vcpuPerServer = 4
	// opCPUCost is server CPU per metadata operation and netOneWay the
	// client↔server latency, calibrated to fig16's IndexFS curve.
	opCPUCost = 300 * time.Microsecond
	netOneWay = 300 * time.Microsecond
)

// server is one IndexFS metadata server: a LevelDB partition behind a
// vCPU queue.
type server struct {
	db  *lsm.DB
	cpu *clock.Queue
}

// Cluster is a running IndexFS deployment.
type Cluster struct {
	clk     *clock.Sim
	ring    *partition.Ring
	servers []*server
	mknods  atomic.Uint64
	gets    atomic.Uint64
}

// New starts the cluster.
func New(clk *clock.Sim) *Cluster {
	c := &Cluster{clk: clk, ring: partition.NewRing(servers, 0)}
	for range servers {
		c.servers = append(c.servers, &server{db: lsm.New(clk, lsm.DefaultConfig()), cpu: clock.NewCPUQueue(clk, vcpuPerServer)})
	}
	return c
}

func (c *Cluster) serverFor(path string) *server {
	return c.servers[c.ring.DeploymentForPath(path)]
}

// Client issues tree-test operations against the cluster.
type Client struct {
	id string
	c  *Cluster
}

// NewClient creates a client.
func (c *Cluster) NewClient(id string) *Client {
	return &Client{id: id, c: c}
}

// Mknod creates the metadata row for path.
func (cl *Client) Mknod(path string) error {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return err
	}
	c := cl.c
	c.clk.Sleep(netOneWay)
	s := c.serverFor(p)
	s.cpu.Acquire(opCPUCost)
	s.db.Put(p, encodeAttr(Attr{Mode: 0o644, Ctime: c.clk.Now().UnixNano()}))
	c.mknods.Add(1)
	c.clk.Sleep(netOneWay)
	return nil
}

// Getattr reads the metadata row for path.
func (cl *Client) Getattr(path string) (Attr, bool, error) {
	p, err := namespace.CleanPath(path)
	if err != nil {
		return Attr{}, false, err
	}
	c := cl.c
	c.clk.Sleep(netOneWay)
	s := c.serverFor(p)
	s.cpu.Acquire(opCPUCost)
	raw, ok := s.db.Get(p)
	c.gets.Add(1)
	c.clk.Sleep(netOneWay)
	if !ok {
		return Attr{}, false, nil
	}
	a, ok := decodeAttr(raw)
	return a, ok, nil
}

// Ops returns (mknods, getattrs) served.
func (c *Cluster) Ops() (uint64, uint64) {
	return c.mknods.Load(), c.gets.Load()
}

// LSMStats aggregates the partitions' LSM counters.
func (c *Cluster) LSMStats() lsm.Stats {
	var out lsm.Stats
	for _, s := range c.servers {
		st := s.db.Stats()
		out.Puts += st.Puts
		out.Gets += st.Gets
		out.Flushes += st.Flushes
		out.Compactions += st.Compactions
		out.Probes += st.Probes
	}
	return out
}
