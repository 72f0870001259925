package il

import (
	"bytes"
	"testing"

	"repro/internal/ip"
)

// FuzzParseHeader throws arbitrary bytes at the IL packet parser. The
// parser is the trust boundary of §3's end-to-end argument: whatever
// the wire delivers, unmarshal either rejects it or yields a packet
// whose checksum verifies and which re-marshals to a packet the parser
// accepts identically.
func FuzzParseHeader(f *testing.F) {
	// Seed with a valid packet, a truncated one, a bit-flipped one,
	// and pathological lengths.
	valid := marshalBlock(header{typ: msgData, src: 17008, dst: 1234, id: 7, ack: 3}, []byte("9fs payload")).Bytes()
	f.Add(valid)
	f.Add(valid[:HdrLen])
	f.Add(valid[:HdrLen-1])
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0x04
	f.Add(flipped)
	short := marshalBlock(header{typ: msgSync, id: 1}, nil).Bytes()
	short[2], short[3] = 0xff, 0xff // length field beyond the buffer
	f.Add(short)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		h, data, ok := unmarshal(p)
		if !ok {
			return
		}
		// Accepted packets verify: the checksum over the claimed
		// length is zero and the length field is sane.
		n := int(p[2])<<8 | int(p[3])
		if n < HdrLen || n > len(p) {
			t.Fatalf("accepted packet with bad length %d (buffer %d)", n, len(p))
		}
		if ip.Checksum(p) != 0 {
			t.Fatal("accepted packet whose checksum does not verify")
		}
		// Round trip: re-marshaling the parsed packet yields a packet
		// the parser accepts with identical contents.
		q := marshalBlock(h, data).Bytes()
		h2, data2, ok2 := unmarshal(q)
		if !ok2 {
			t.Fatalf("re-marshaled packet rejected: %x", q)
		}
		if h2 != h || !bytes.Equal(data2, data) {
			t.Fatalf("round trip changed the packet: %+v/%x vs %+v/%x", h, data, h2, data2)
		}
	})
}
