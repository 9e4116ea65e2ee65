package namespace

import (
	"fmt"
	"math/bits"
	"slices"

	"lambdafs/internal/trace"
)

// OpType enumerates the metadata operations of the evaluation (Table 2 and
// the microbenchmarks): create file, mkdirs, delete, mv, read (open /
// getBlockLocations), stat, and ls.
type OpType int

// Metadata operation kinds.
const (
	OpCreate OpType = iota // create file
	OpMkdirs               // create directory (and missing ancestors)
	OpDelete               // delete file or directory (recursive for dirs)
	OpMv                   // rename/move file or directory
	OpRead                 // read file: resolve path + fetch block locations
	OpStat                 // stat file or directory
	OpLs                   // list directory (or stat a file)
	numOps
)

// NumOps is the number of distinct operation types.
const NumOps = int(numOps)

var opNames = [...]string{"create", "mkdir", "delete", "mv", "read", "stat", "ls"}

func (op OpType) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(op))
	}
	return opNames[op]
}

// IsWrite reports whether the operation mutates the namespace and must run
// the coherence protocol.
func (op OpType) IsWrite() bool {
	switch op {
	case OpCreate, OpMkdirs, OpDelete, OpMv:
		return true
	}
	return false
}

// Request is one metadata RPC from a client to a NameNode. The same
// payload travels over both the HTTP and TCP paths.
type Request struct {
	Op   OpType
	Path string
	Dest string // destination path for mv

	// Tenant names the issuing tenant for admission control; empty (the
	// single-tenant case) bypasses admission entirely.
	Tenant string

	// ClientID and Seq identify the request for resubmission
	// deduplication: NameNodes keep each client's latest write result
	// with its Seq, so a retried write returns the original result
	// instead of re-executing (§3.2); a retried read re-executes.
	ClientID string
	Seq      uint64

	// Raced marks a write whose client runs it twice at once, its TCP call
	// racing an HTTP invocation (§3.4's replacement; the race is beyond the
	// paper). Every transaction of a raced write first locks the client's
	// row in store.TableResults, so whichever copy comes second answers what
	// the first did. A retry of the same Seq keeps it set.
	Raced bool

	// TC is the request's trace context; nil when tracing is off (the
	// nil-context fast path — every trace method no-ops on nil). The RPC
	// client re-points it at the transport span before handing the
	// request to a NameNode, so server-side spans nest correctly.
	TC *trace.Ctx

	// Reply is the storage the request's reply is written into: memory
	// the client owns, as a real client decodes a reply off its
	// connection into its own buffers. A NameNode that serves the request
	// answers with a Response inside it; nil gives the reply fresh
	// storage. It is not part of the request on the wire.
	Reply *Reply
}

// RequestKey identifies a request across resubmissions.
type RequestKey struct {
	ClientID string
	Seq      uint64
}

// Key returns the deduplication key of the request.
func (r Request) Key() RequestKey { return RequestKey{r.ClientID, r.Seq} }

// Response is the result of a metadata RPC. It is the caller's: nothing in
// it is shared with a store row, a cache or another client's reply. It
// lives in its request's Reply, with the StatInfo Stat points at, a read's
// block list when it is short and an ls's entries unless the listing is
// longer than ReplyEntries, so Stat, Blocks and Entries live exactly as
// long as that storage does. Blocks is a private deep copy of the file's
// block list, replica locations included (CloneBlocksInto).
type Response struct {
	Err string // sentinel error text; empty on success (see errors.go)

	ID      INodeID
	Stat    *StatInfo
	Entries []DirEntry
	Blocks  []Block

	// Diagnostics used by the evaluation.
	CacheHit bool   // read path served entirely from the NameNode cache
	ServedBy string // NameNode instance ID
}

// Clone returns a deep copy of r: its StatInfo, entries and block list
// (replica locations included) are the copy's own, so it outlives the
// storage r was written into.
func (r *Response) Clone() *Response {
	c := *r
	if r.Stat != nil {
		stat := *r.Stat
		c.Stat = &stat
	}
	c.Entries = slices.Clone(r.Entries)
	c.Blocks = CloneBlocks(r.Blocks)
	return &c
}

// OK reports whether the operation succeeded.
func (r *Response) OK() bool { return r.Err == "" }

// Error converts the wire error text back into a Go error (nil on
// success), mapping sentinel texts onto the package's sentinel errors so
// callers can use errors.Is.
func (r *Response) Error() error { return FromWire(r.Err) }

// ReplyLocations is the number of replica locations a Reply has room for:
// the replication factor of the files NameNodes create.
const ReplyLocations = 3

// ReplyEntries is the longest listing whose entries a Reply keeps room for
// from one reply to the next: 256 entries, 10 KiB, the largest room the
// engine's ls replies had when each was an object of its own, and four
// times the 64-entry directories of the benchmark namespaces. No storage
// holds more than that, whatever listing it once read.
const ReplyEntries = 256

// Reply is the storage a request's reply is written into
// (Request.Reply): the Response and room for what it points at — the
// StatInfo of a read, a stat or an ls of a file, a one-block list with up
// to ReplyLocations replica locations, and an ls's entries (EntryRoom). A
// longer block list spills to the heap. Writing a reply resets everything
// an earlier reply left in the storage, so a client reuses one Reply call
// after call.
type Reply struct {
	Response
	stat    StatInfo
	block   [1]Block
	locs    [ReplyLocations]string
	entries []DirEntry
}

// Set makes resp the reply and returns it.
func (r *Reply) Set(resp Response) *Response {
	r.Response = resp
	return &r.Response
}

// SetStat makes the reply n's attributes at path, hit telling whether the
// NameNode's cache served them, and returns it.
func (r *Reply) SetStat(n *INode, path string, hit bool) *Response {
	r.stat = StatOf(n, path)
	return r.Set(Response{ID: n.ID, Stat: &r.stat, CacheHit: hit})
}

// SetBlocks points the reply's Blocks at a private copy of blocks, written
// into the reply's room when it fits.
func (r *Reply) SetBlocks(blocks []Block) {
	r.Blocks = CloneBlocksInto(blocks, r.block[:], r.locs[:])
}

// SetEntry makes e the reply's one entry (an ls of a file).
func (r *Reply) SetEntry(e DirEntry) {
	r.Entries = r.EntryRoom(1)
	r.Entries[0] = e
}

// EntryRoom returns room for a listing's n entries, clipped to n: the
// storage's own room, grown to the smallest power of two that holds n,
// when n is at most ReplyEntries, else a fresh slice the storage does not
// keep, gone with the reply that points at it.
func (r *Reply) EntryRoom(n int) []DirEntry {
	if n > ReplyEntries {
		return make([]DirEntry, n)
	}
	if n > cap(r.entries) {
		r.entries = make([]DirEntry, 1<<bits.Len(uint(n-1)))
	}
	return r.entries[:n:n]
}
