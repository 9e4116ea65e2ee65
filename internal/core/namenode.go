package core

import (
	"lambdafs/internal/coordinator"
	"lambdafs/internal/faas"
	"lambdafs/internal/rpc"
)

// NameNode is the serverless function body: an Engine wrapped as a
// faas.App. It registers with the Coordinator on start (liveness for the
// coherence protocol), serves HTTP invocations, establishes TCP
// connections back to client VMs (§3.2), and deregisters on shutdown.
type NameNode struct {
	eng     *Engine
	inst    *faas.Instance
	conn    *rpc.Conn // the connection it offers back to every client VM
	session coordinator.Session
}

var _ faas.App = (*NameNode)(nil)

// NewNameNode builds the App for a fresh function instance.
func NewNameNode(eng *Engine, inst *faas.Instance, coord coordinator.Coordinator) *NameNode {
	nn := &NameNode{eng: eng, inst: inst, conn: rpc.NewConn(inst, eng)}
	if coord != nil {
		nn.session = coord.Register(inst.DeploymentIndex(), eng.ID(), eng.HandleInvalidation)
	}
	return nn
}

// Engine exposes the NameNode's engine (diagnostics, TCP serving).
func (nn *NameNode) Engine() *Engine { return nn.eng }

// HandleInvoke serves one HTTP-RPC payload and proactively connects back
// to the issuing client's TCP server. A replaced request's invocation
// whose race is already decided runs nothing (Engine.Execute) and answers
// nil, but still connects back: the connection is what the client gains
// from the invocation.
func (nn *NameNode) HandleInvoke(payload any) any {
	p, ok := payload.(*rpc.Payload)
	if !ok {
		return nil
	}
	resp := nn.eng.Execute(p.Req)
	if p.ReplyTo != nil {
		p.ReplyTo.Offer(nn.inst.DeploymentIndex(), nn.conn)
	}
	return resp
}

// Shutdown deregisters the NameNode from the Coordinator. A crash (fault
// injection or provider reclamation mid-work) uses the Coordinator's crash
// path, which triggers store lock cleanup for this NameNode (§3.6).
func (nn *NameNode) Shutdown(crashed bool) {
	if nn.session == nil {
		return
	}
	if crashed {
		nn.session.Crash()
	} else {
		nn.session.Close()
	}
}
