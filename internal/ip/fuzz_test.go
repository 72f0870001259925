package ip

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the IP header parser, which
// takes whatever an Ethernet frame of type 0x800 carried. It either
// rejects the packet or yields a header and a payload that lie inside
// the packet and that re-marshal to a packet it parses identically.
func FuzzUnmarshal(f *testing.F) {
	h := Header{ID: 7, TTL: DefaultTTL, Proto: ProtoIL, Src: Addr{135, 104, 9, 31}, Dst: Addr{135, 104, 9, 2}}
	valid := h.Marshal([]byte("il packet"))
	f.Add(valid)
	f.Add(valid[:HdrLen])
	f.Add(valid[:HdrLen-1])
	f.Add(append(append([]byte(nil), valid...), "trailing pad"...))
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x10
	f.Add(flipped)
	long := h.Marshal(nil)
	long[2], long[3] = 0xff, 0xff // length field beyond the buffer
	f.Add(long)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, pkt []byte) {
		h, payload, err := Unmarshal(pkt)
		if err != nil {
			return
		}
		if int(h.Len) > len(pkt) || int(h.Len) != HdrLen+len(payload) {
			t.Fatalf("accepted a %d-byte packet with length field %d and a %d-byte payload", len(pkt), h.Len, len(payload))
		}
		h2, payload2, err := Unmarshal(h.Marshal(payload))
		if err != nil {
			t.Fatalf("re-marshaled packet rejected: %v", err)
		}
		if h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the packet: %+v/%x vs %+v/%x", h, payload, h2, payload2)
		}
	})
}
