package core

import (
	"bytes"
	"testing"

	"lambdafs/internal/namespace"
)

// FuzzResultRow holds the result row's codec to its contract: every row
// round-trips; every strict prefix of an encoding, and an encoding with a
// byte more, is rejected; and arbitrary bytes never panic and are accepted
// only as the one encoding of the row they decode to, so overlong varints,
// wrong lengths and trailing bytes are all rejected.
func FuzzResultRow(f *testing.F) {
	f.Add(uint64(7), uint64(42), "", []byte{0x07, 0x2a, 0x00})
	f.Add(uint64(1<<63), uint64(0), namespace.ErrRaceDeclined.Error(), []byte{0x80, 0x00, 0x00, 0x00})
	f.Add(uint64(0), uint64(1<<40), namespace.ErrExists.Error(), []byte{0x01, 0x02, 0x03, 'a', 'b'})
	f.Fuzz(func(t *testing.T, seq, id uint64, errText string, raw []byte) {
		r := resultRow{seq: seq, id: namespace.INodeID(id), err: errText}
		b := appendResultRow(nil, r)
		if got, err := decodeResultRow(b); err != nil || got != r {
			t.Fatalf("%+v encodes to %x, which decodes to %+v (%v)", r, b, got, err)
		}
		for i := range b {
			if got, err := decodeResultRow(b[:i]); err == nil {
				t.Fatalf("the %d-byte prefix of %x decodes to %+v", i, b, got)
			}
		}
		if got, err := decodeResultRow(append(b, 0)); err == nil {
			t.Fatalf("%x with a byte more decodes to %+v", b, got)
		}
		if got, err := decodeResultRow(raw); err == nil {
			if again := appendResultRow(nil, got); !bytes.Equal(again, raw) {
				t.Fatalf("%x decodes to %+v, whose encoding is %x", raw, got, again)
			}
		}
	})
}
