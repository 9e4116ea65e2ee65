package core

import (
	"encoding/binary"
	"errors"

	"lambdafs/internal/namespace"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// This file makes a raced write (namespace.Request.Raced) execute once.
// Its client sends the same Seq twice at once, over TCP and as an HTTP
// invocation (§3.4's replacement; the race is beyond the paper), and the
// two copies may reach engines of different instances. Each client owns
// one row in store.TableResults: its latest raced Seq and that write's
// reply. Every transaction of a raced write starts by locking the row
// exclusive (the first lock in the global lock order, one store round) and
// then:
//
//   - the row holds this Seq: the transaction answers the recorded reply
//     and executes nothing;
//   - the row holds a later Seq: the client has moved on, and the answer is
//     namespace.ErrStale, a transport-class failure;
//   - otherwise the write runs, and the row commits with the write's
//     effects in the same transaction — or alone, when the write failed
//     with its outcome (namespace.IsOutcome), which the lock phase finds
//     before the body buffers anything.
//
// A transaction that fails otherwise (a lock timeout, a failed INV round,
// a store error) aborts and records nothing; its reply's error is not an
// outcome, so the client treats it as transport-class and waits for the
// twin or retries, and the retry checks the row again. A raced delete or mv
// that finds a directory records namespace.ErrRaceDeclined instead of
// starting the multi-transaction subtree protocol. The row is an ordinary
// KV row, so it is WAL-logged, checkpointed and recovered like any other.

// resultRow is a client's row: its latest raced write's Seq and reply.
type resultRow struct {
	seq uint64
	id  namespace.INodeID
	err string // the reply's wire error, "" on success
}

// errMalformedRow rejects bytes that are not an encoded resultRow.
var errMalformedRow = errors.New("core: malformed result row")

// appendResultRow appends r's encoding to b: Seq and ID as uvarints, then
// the error's length as a uvarint and its bytes.
func appendResultRow(b []byte, r resultRow) []byte {
	b = binary.AppendUvarint(b, r.seq)
	b = binary.AppendUvarint(b, uint64(r.id))
	b = binary.AppendUvarint(b, uint64(len(r.err)))
	return append(b, r.err...)
}

// decodeResultRow decodes what appendResultRow wrote, and nothing else: a
// truncated or overlong varint, a length past the end or trailing bytes
// are errMalformedRow.
func decodeResultRow(b []byte) (resultRow, error) {
	var r resultRow
	var id, n uint64
	var ok bool
	if r.seq, b, ok = uvarint(b); !ok {
		return resultRow{}, errMalformedRow
	}
	if id, b, ok = uvarint(b); !ok {
		return resultRow{}, errMalformedRow
	}
	if n, b, ok = uvarint(b); !ok || n != uint64(len(b)) {
		return resultRow{}, errMalformedRow
	}
	r.id, r.err = namespace.INodeID(id), string(b)
	return r, nil
}

// uvarint reads one canonical uvarint off b: the shortest encoding of its
// value, so every row has exactly one encoding.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// racedOf is a raced write's key, which names its client's row and its Seq;
// the zero key for any other request.
func racedOf(req namespace.Request) namespace.RequestKey {
	if !req.Raced || req.ClientID == "" || !req.Op.IsWrite() {
		return namespace.RequestKey{}
	}
	return req.Key()
}

// writeTx runs one transaction of a write through store.RunTx: fn is its
// body, which returns the reply's ID. A write that is not raced (race is
// zero) is fn alone. A raced one checks and records its client's row
// around fn, and answers the row's reply when its twin came first, counted
// in lambdafs_core_raced_replays_total; a failure it records is returned
// as the write's error, like fn's own.
func (e *Engine) writeTx(tc *trace.Ctx, race namespace.RequestKey, fn func(tx store.Tx) (namespace.INodeID, error)) (namespace.INodeID, error) {
	var id namespace.INodeID
	if race.ClientID == "" {
		err := store.RunTx(e.st, e.id, tc, func(tx store.Tx) (err error) {
			id, err = fn(tx)
			return err
		})
		return id, err
	}
	var answer error
	var replayed bool
	err := store.RunTx(e.st, e.id, tc, func(tx store.Tx) (err error) {
		id, answer, replayed, err = e.racedTx(tx, race, fn)
		return err
	})
	if err != nil {
		return namespace.InvalidID, err
	}
	if replayed {
		e.tel.racedReplays.Inc()
	}
	return id, answer
}

// racedTx is one attempt of a raced write's transaction: the row check,
// then fn and the row it records. answer is the write's outcome failure,
// recorded or replayed; err aborts the attempt.
func (e *Engine) racedTx(tx store.Tx, race namespace.RequestKey, fn func(tx store.Tx) (namespace.INodeID, error)) (id namespace.INodeID, answer error, replayed bool, err error) {
	val, err := tx.KVGet(store.TableResults, race.ClientID, store.LockExclusive)
	switch {
	case errors.Is(err, namespace.ErrNotFound):
	case err != nil:
		return namespace.InvalidID, nil, false, err
	default:
		row, err := decodeResultRow(val)
		switch {
		case err != nil:
			return namespace.InvalidID, nil, false, err
		case row.seq == race.Seq:
			return row.id, namespace.FromWire(row.err), true, nil
		case row.seq > race.Seq:
			return namespace.InvalidID, nil, false, namespace.ErrStale
		}
	}
	id, err = fn(tx)
	switch {
	case err == nil:
	case namespace.IsOutcome(err):
		// Found in the lock phase: nothing is buffered, so the row
		// commits alone.
		id, answer = namespace.InvalidID, err
	default:
		return namespace.InvalidID, nil, false, err
	}
	row := resultRow{seq: race.Seq, id: id, err: namespace.ToWire(answer)}
	return id, answer, false, tx.KVPut(store.TableResults, race.ClientID, appendResultRow(nil, row))
}
