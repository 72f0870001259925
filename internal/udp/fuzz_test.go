package udp

import (
	"bytes"
	"testing"

	"repro/internal/ip"
	"repro/internal/vclock"
)

// FuzzRecv throws arbitrary bytes at the UDP demux, which takes
// whatever an IP packet of protocol 17 carried. A conversation is
// announced on port 53, so a datagram for it reaches a headers-mode
// reader. recv must never panic, and it delivers either nothing or
// exactly the payload the length field bounds, payload[HdrLen:n],
// behind the source's headers-mode prefix; a datagram whose length
// field fits the packet and whose port is bound is always delivered.
func FuzzRecv(f *testing.F) {
	dgram := func(src, dst uint16, n int, data string) []byte {
		b := []byte{byte(src >> 8), byte(src), byte(dst >> 8), byte(dst), byte(n >> 8), byte(n), 0, 0}
		return append(b, data...)
	}
	f.Add(dgram(5000, 53, HdrLen+5, "query"))     // valid
	f.Add(dgram(5000, 53, HdrLen+5, "query")[:5]) // short header
	f.Add(dgram(5000, 53, HdrLen-1, "query"))     // length below HdrLen
	f.Add(dgram(5000, 53, HdrLen+9, "query"))     // length past the payload
	f.Add(dgram(5000, 54, HdrLen+5, "query"))     // unbound port
	f.Add(dgram(5000, 53, HdrLen+2, "query pad")) // trailing bytes past the length

	src := ip.Addr{135, 104, 9, 1}
	f.Fuzz(func(t *testing.T, payload []byte) {
		vclock.Simulate(func(ck vclock.Clock) error {
			st := ip.NewStack(ck)
			defer st.Close()
			p := New(st)
			c, _ := p.NewConn()
			defer c.Close()
			if err := c.Announce("53"); err != nil {
				t.Error(err)
				return nil
			}
			p.recv(src, ip.Addr{135, 104, 9, 2}, payload)

			var want []byte
			if len(payload) >= HdrLen {
				n := int(payload[4])<<8 | int(payload[5])
				if n >= HdrLen && n <= len(payload) && payload[2] == 0 && payload[3] == 53 {
					want = append(append(append([]byte(nil), src[:]...), payload[0], payload[1]), payload[HdrLen:n]...)
				}
			}
			queued := c.(*Conn).rstream.QueuedBytes()
			if want == nil {
				if queued != 0 {
					t.Errorf("delivered %d bytes of a datagram it should have dropped: %x", queued, payload)
				}
				return nil
			}
			buf := make([]byte, len(payload)+AddrHdrLen+1)
			n, err := c.Read(buf)
			if err != nil || !bytes.Equal(buf[:n], want) {
				t.Errorf("read %x, %v; want %x", buf[:n], err, want)
			}
			return nil
		})
	})
}
