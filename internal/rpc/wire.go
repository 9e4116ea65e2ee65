package rpc

import "lambdafs/internal/namespace"

// Modeled wire sizes for the resource ledger. The simulation never
// serializes requests, so these are a deterministic encoding model — a
// fixed framing header plus per-field costs roughly matching a compact
// binary encoding of the HopsFS RPC schema. The absolute numbers matter
// less than their being stable: the ledger's job is to show *where* bytes
// scale (listings, block reports, mv's double path) and to regress loudly
// when an op's payload grows.
const (
	// wireHeaderBytes covers framing, op code, request/trace IDs.
	wireHeaderBytes = 64
	// wireStatBytes is one encoded StatInfo (fixed fields + short owner).
	wireStatBytes = 96
	// wireEntryBytes is one directory entry (name + id + flags).
	wireEntryBytes = 48
	// wireBlockBytes is one block location record.
	wireBlockBytes = 32
	// wireHTTPOverheadBytes is the extra envelope of a gateway-routed
	// invocation (HTTP headers + JSON framing) versus raw TCP.
	wireHTTPOverheadBytes = 512
)

// reqWireBytes models the on-wire size of a request.
func reqWireBytes(req namespace.Request) uint64 {
	return wireHeaderBytes + uint64(len(req.Path)+len(req.Dest)+len(req.Tenant)+len(req.ClientID))
}

// respWireBytes models the on-wire size of a response.
func respWireBytes(resp *namespace.Response) uint64 {
	n := wireHeaderBytes + uint64(len(resp.Err)+len(resp.ServedBy))
	if resp.Stat != nil {
		n += wireStatBytes + uint64(len(resp.Stat.Path))
	}
	for i := range resp.Entries {
		n += wireEntryBytes + uint64(len(resp.Entries[i].Name))
	}
	n += uint64(len(resp.Blocks)) * wireBlockBytes
	return n
}
