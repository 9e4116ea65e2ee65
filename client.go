package lambdafs

import (
	"fmt"
	"slices"

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
//
// A Client is safe for concurrent use: its calls take turns on the one
// rpc.Client inside it, which serves one caller at a time and writes each
// reply into storage it reuses, and every result a call returns is a copy
// the caller owns, valid across later calls.
type Client struct {
	inner *rpc.Client
	clk   *clock.Sim
	turn  *clock.Mailbox[struct{}] // one token: the call that holds it runs
}

// NewClient creates a client on the cluster's default VM.
func (c *Cluster) NewClient(id string) *Client { return c.NewClientOnVM(c.vm, id) }

// NewClientOnVM creates a client on a specific VM (see Cluster.NewVM).
func (c *Cluster) NewClientOnVM(vm *rpc.VM, id string) *Client {
	if id == "" {
		id = fmt.Sprintf("client-%d", c.clientSeq.Add(1))
	}
	cl := &Client{inner: vm.NewClient(id, c.sys.Ring(), c.sys), clk: c.clk, turn: clock.NewMailbox[struct{}](c.clk)}
	cl.turn.Send(struct{}{})
	return cl
}

// call runs op through the inner client in the caller's turn and returns
// keep's copy of what the caller keeps of a successful reply, taken before
// the turn passes on: the reply itself lives in the inner client's storage,
// valid only until its next Do. A failed reply is its error; a nil keep
// keeps nothing.
func call[T any](cl *Client, op namespace.OpType, path, dest string, keep func(*namespace.Response) T) (T, error) {
	var res struct { // one object for both results
		out T
		err error
	}
	clock.Run(cl.clk, func() {
		cl.turn.Recv()
		defer cl.turn.Send(struct{}{})
		resp, err := cl.inner.Do(op, path, dest)
		if err == nil {
			err = resp.Error()
		}
		if res.err = err; err == nil && keep != nil {
			res.out = keep(resp)
		}
	})
	return res.out, res.err
}

// Create makes a new empty file.
func (cl *Client) Create(path string) error {
	_, err := call[struct{}](cl, namespace.OpCreate, path, "", nil)
	return err
}

// MkdirAll creates a directory and any missing ancestors; creating an
// existing directory succeeds.
func (cl *Client) MkdirAll(path string) error {
	_, err := call[struct{}](cl, namespace.OpMkdirs, path, "", nil)
	return err
}

// Stat returns the attributes of a file or directory.
func (cl *Client) Stat(path string) (FileInfo, error) {
	return call(cl, namespace.OpStat, path, "", statOf)
}

func statOf(resp *namespace.Response) FileInfo { return *resp.Stat }

// Open resolves a file and returns its attributes and block locations
// (the HDFS open/getBlockLocations read path).
func (cl *Client) Open(path string) (FileInfo, []Block, error) {
	o, err := call(cl, namespace.OpRead, path, "", openOf)
	return o.info, o.blocks, err
}

type opened struct {
	info   FileInfo
	blocks []Block
}

func openOf(resp *namespace.Response) opened {
	return opened{*resp.Stat, namespace.CloneBlocks(resp.Blocks)}
}

// List returns the entries of a directory (or the file itself for a file
// path, HDFS-style).
func (cl *Client) List(path string) ([]DirEntry, error) {
	return call(cl, namespace.OpLs, path, "", entriesOf)
}

func entriesOf(resp *namespace.Response) []DirEntry { return slices.Clone(resp.Entries) }

// Rename moves a file or directory; directory moves run the subtree
// protocol (Appendix D).
func (cl *Client) Rename(src, dest string) error {
	_, err := call[struct{}](cl, namespace.OpMv, src, dest, nil)
	return err
}

// Remove deletes a file, or a directory recursively.
func (cl *Client) Remove(path string) error {
	_, err := call[struct{}](cl, namespace.OpDelete, path, "", nil)
	return err
}

// Do exposes the raw operation interface used by the workload drivers.
// The operation is shuttled into a simulation-registered goroutine, so
// applications may call it from anywhere; concurrent calls take turns. The
// reply is a copy of the one the client received (namespace.Response.Clone),
// so it stays the caller's across later calls. A failed operation is a
// reply with its Err set, not an error.
func (cl *Client) Do(op namespace.OpType, path, dest string) (resp *namespace.Response, err error) {
	clock.Run(cl.clk, func() {
		cl.turn.Recv()
		defer cl.turn.Send(struct{}{})
		if resp, err = cl.inner.Do(op, path, dest); err == nil {
			resp = resp.Clone()
		}
	})
	return resp, err
}

// Stats returns the client's RPC counters.
func (cl *Client) Stats() rpc.ClientStats { return cl.inner.Stats() }
