package lambdafs

import (
	"fmt"

	"lambdafs/internal/clock"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
)

// Re-exported metadata types so applications need only this package.
type (
	// DirEntry is one row of a directory listing.
	DirEntry = namespace.DirEntry
	// FileInfo describes a file or directory.
	FileInfo = namespace.StatInfo
	// Block is one replicated file data block.
	Block = namespace.Block
)

// Re-exported sentinel errors (errors.Is-compatible end to end).
var (
	ErrNotFound    = namespace.ErrNotFound
	ErrExists      = namespace.ErrExists
	ErrNotDir      = namespace.ErrNotDir
	ErrIsDir       = namespace.ErrIsDir
	ErrSubtreeBusy = namespace.ErrSubtreeBusy
	ErrInvalidPath = namespace.ErrInvalidPath
)

// Client issues file system metadata operations against a Cluster using
// λFS's hybrid HTTP/TCP RPC client library: consistent-hash routing by
// parent directory, TCP fast path with randomized HTTP replacement,
// retries with backoff and jitter, straggler hedging, and anti-thrashing
// (§3.2, §3.4, Appendices B-C).
type Client struct {
	inner *rpc.Client
	clk   *clock.Sim
}

// NewClient creates a client on the cluster's default VM.
func (c *Cluster) NewClient(id string) *Client { return c.NewClientOnVM(c.vm, id) }

// NewClientOnVM creates a client on a specific VM (see Cluster.NewVM).
func (c *Cluster) NewClientOnVM(vm *rpc.VM, id string) *Client {
	if id == "" {
		id = fmt.Sprintf("client-%d", c.clientSeq.Add(1))
	}
	return &Client{inner: vm.NewClient(id, c.sys.Ring(), c.sys), clk: c.clk}
}

func (cl *Client) do(op namespace.OpType, path, dest string) (*namespace.Response, error) {
	resp, err := cl.Do(op, path, dest)
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return nil, resp.Error()
	}
	return resp, nil
}

// Create makes a new empty file.
func (cl *Client) Create(path string) error {
	_, err := cl.do(namespace.OpCreate, path, "")
	return err
}

// MkdirAll creates a directory and any missing ancestors; creating an
// existing directory succeeds.
func (cl *Client) MkdirAll(path string) error {
	_, err := cl.do(namespace.OpMkdirs, path, "")
	return err
}

// Stat returns the attributes of a file or directory.
func (cl *Client) Stat(path string) (FileInfo, error) {
	resp, err := cl.do(namespace.OpStat, path, "")
	if err != nil {
		return FileInfo{}, err
	}
	return *resp.Stat, nil
}

// Open resolves a file and returns its attributes and block locations
// (the HDFS open/getBlockLocations read path).
func (cl *Client) Open(path string) (FileInfo, []Block, error) {
	resp, err := cl.do(namespace.OpRead, path, "")
	if err != nil {
		return FileInfo{}, nil, err
	}
	return *resp.Stat, resp.Blocks, nil
}

// List returns the entries of a directory (or the file itself for a file
// path, HDFS-style).
func (cl *Client) List(path string) ([]DirEntry, error) {
	resp, err := cl.do(namespace.OpLs, path, "")
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Rename moves a file or directory; directory moves run the subtree
// protocol (Appendix D).
func (cl *Client) Rename(src, dest string) error {
	_, err := cl.do(namespace.OpMv, src, dest)
	return err
}

// Remove deletes a file, or a directory recursively.
func (cl *Client) Remove(path string) error {
	_, err := cl.do(namespace.OpDelete, path, "")
	return err
}

// Do exposes the raw operation interface used by the workload drivers.
// The operation is shuttled into a simulation-registered goroutine, so
// applications may call it from anywhere.
func (cl *Client) Do(op namespace.OpType, path, dest string) (resp *namespace.Response, err error) {
	clock.Run(cl.clk, func() {
		resp, err = cl.inner.Do(op, path, dest)
	})
	return resp, err
}

// Stats returns the client's RPC counters.
func (cl *Client) Stats() rpc.ClientStats { return cl.inner.Stats() }
