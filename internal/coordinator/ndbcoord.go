package coordinator

import (
	"fmt"

	"lambdafs/internal/clock"
	"lambdafs/internal/store"
)

// NDBCoord is the NDB-backed Coordinator variant (§3.1: "λFS currently
// supports both ZooKeeper and MySQL Cluster NDB"). Membership is persisted
// in the metadata store's coordinator table, and protocol messages pay
// store round trips instead of ZooKeeper hops. Message fan-out itself is
// delegated to the in-memory dispatcher — the store is the source of truth
// for liveness, mirroring NDB's event-subscription mechanism.
type NDBCoord struct {
	*ZK
	st store.Store
}

var _ Coordinator = (*NDBCoord)(nil)

// NewNDB creates a store-backed coordinator. The INV/ACK hop latency is
// inherited from cfg (callers typically set it to the store RTT).
func NewNDB(clk *clock.Sim, cfg Config, st store.Store) *NDBCoord {
	return &NDBCoord{ZK: NewZK(clk, cfg), st: st}
}

func memberKey(dep int, id string) string {
	return fmt.Sprintf("member/%d/%s", dep, id)
}

// Register persists the membership row, then registers in-memory.
func (c *NDBCoord) Register(dep int, id string, h Handler) Session {
	err := store.RunTx(c.st, "coord", nil, func(tx store.Tx) error {
		return tx.KVPut(store.TableCoord, memberKey(dep, id), []byte("alive"))
	})
	if err != nil {
		// Membership writes only contend with themselves; a failure here
		// means the store is gone, in which case the in-memory state
		// still lets the protocol function.
		_ = err
	}
	inner := c.ZK.Register(dep, id, h)
	return &ndbSession{Session: inner, c: c, dep: dep, id: id}
}

type ndbSession struct {
	Session
	c   *NDBCoord
	dep int
	id  string
}

func (s *ndbSession) remove() {
	_ = store.RunTx(s.c.st, "coord", nil, func(tx store.Tx) error {
		return tx.KVDelete(store.TableCoord, memberKey(s.dep, s.id))
	})
}

func (s *ndbSession) Close() {
	s.remove()
	s.Session.Close()
}

func (s *ndbSession) Crash() {
	s.remove()
	s.Session.Crash()
}
