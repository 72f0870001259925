package tcp

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the segment parser, which
// takes whatever an IP packet of protocol 6 carried. It either rejects
// the segment or yields a payload that lies inside it, after the header,
// and a header and payload that marshalBlock turns back into a segment
// it parses identically.
func FuzzUnmarshal(f *testing.F) {
	valid := marshalBytes(header{src: 5001, dst: 564, seq: 99, ack: 42, flags: flagACK, win: 4096}, []byte("9P over marshaling"))
	f.Add(valid)
	f.Add(valid[:HdrLen])
	f.Add(valid[:HdrLen-1])
	f.Add(marshalBytes(header{src: 5001, dst: 564, seq: 1, flags: flagSYN}, nil))
	f.Add(marshalBytes(header{flags: flagFIN | flagACK, win: 0xffff}, []byte("odd")))
	flipped := append([]byte(nil), valid...)
	flipped[12] ^= flagRST
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, seg []byte) {
		h, data, ok := unmarshal(seg)
		if !ok {
			return
		}
		if len(seg) < HdrLen || len(data) != len(seg)-HdrLen || (len(data) > 0 && &data[0] != &seg[HdrLen]) {
			t.Fatalf("accepted a %d-byte segment with a %d-byte payload that is not its tail", len(seg), len(data))
		}
		b := marshalBlock(h, data)
		defer b.Free()
		h2, data2, ok := unmarshal(b.Bytes())
		if !ok {
			t.Fatalf("re-marshaled segment rejected: %x", b.Bytes())
		}
		if h2 != h || !bytes.Equal(data2, data) {
			t.Fatalf("round trip changed the segment: %+v/%x vs %+v/%x", h, data, h2, data2)
		}
	})
}
