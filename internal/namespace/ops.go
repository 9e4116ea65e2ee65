package namespace

import (
	"fmt"

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
}

// RequestKey identifies a request across resubmissions.
type RequestKey struct {
	ClientID string
	Seq      uint64
}

// Key returns the deduplication key of the request.
func (r Request) Key() RequestKey { return RequestKey{r.ClientID, r.Seq} }

// Response is the result of a metadata RPC. It is the caller's: nothing in
// it is shared with a store row or a cache. The one exception is a
// resubmitted write (same ClientID/Seq) that a NameNode's result cache
// answers: its reply is the first execution's Response object itself. A
// read or stat reply is one object — the Response, the StatInfo Stat points
// at and, for a read, the block list when it is short — so Stat and Blocks
// live exactly as long as the Response does. Blocks is a private deep copy
// of the file's block list, replica locations included (CloneBlocksInto).
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

// OK reports whether the operation succeeded.
func (r *Response) OK() bool { return r.Err == "" }

// Error converts the wire error text back into a Go error (nil on
// success), mapping sentinel texts onto the package's sentinel errors so
// callers can use errors.Is.
func (r *Response) Error() error { return FromWire(r.Err) }
