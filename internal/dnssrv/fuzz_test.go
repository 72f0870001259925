package dnssrv

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the DNS message parser, which
// takes whatever datagram arrives on UDP port 53 or in answer to a
// query. It must reject or decode without reading past the buffer, and
// what it decodes must survive the codec: if the message marshals at
// all (Marshal canonicalizes names and refuses labels the wire cannot
// carry), the result parses, and marshals again to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	query := &Msg{ID: 7, QName: "helix.research.bell-labs.com", QType: TypeA}
	answer := &Msg{ID: 7, Response: true, Auth: true, QName: "fs.research.bell-labs.com", QType: TypeA,
		Answer: []RR{
			{Name: "fs.research.bell-labs.com", Type: TypeCNAME, TTL: 3600, Data: "bootes.research.bell-labs.com"},
			{Name: "bootes.research.bell-labs.com", Type: TypeA, TTL: 3600, Data: "135.104.9.2"},
		},
		NS:    []RR{{Name: "research.bell-labs.com", Type: TypeNS, TTL: 3600, Data: "bootes.research.bell-labs.com"}},
		Extra: []RR{{Name: "bootes.research.bell-labs.com", Type: TypeTXT, TTL: 60, Data: "the file server"}},
	}
	nx := &Msg{ID: 9, Response: true, Rcode: rcodeNX, QName: "ghost.research.bell-labs.com", QType: TypePTR}
	for _, m := range []*Msg{query, answer, nx} {
		p, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:len(p)-1])
		f.Add(p[:12])
	}
	f.Add([]byte{0, 1, 0x80, 0, 0, 1, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 1, 0, 1}) // 65535 answers, none present
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Unmarshal(p)
		if err != nil {
			return
		}
		q, err := m.Marshal()
		if err != nil {
			return
		}
		m2, err := Unmarshal(q)
		if err != nil {
			t.Fatalf("re-marshaled message rejected: %v\n%x", err, q)
		}
		q2, err := m2.Marshal()
		if err != nil || !bytes.Equal(q2, q) {
			t.Fatalf("round trip is not stable: %v\n%x\n%x", err, q, q2)
		}
	})
}
