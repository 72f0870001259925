package dnssrv

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/udp"
	"repro/internal/xport"
)

// Zone is an authoritative zone: records plus delegations (NS records
// for child zones, with glue A records for the name servers).
type Zone struct {
	Origin string // e.g. "bell-labs.com" or "" for the root

	mu      sync.RWMutex
	records map[string][]RR
}

// NewZone creates an empty zone.
func NewZone(origin string) *Zone {
	return &Zone{Origin: Canonical(origin), records: make(map[string][]RR)}
}

// Add inserts a record.
func (z *Zone) Add(r RR) {
	r.Name = Canonical(r.Name)
	r.Data = strings.TrimSuffix(r.Data, ".")
	if r.TTL == 0 {
		r.TTL = 3600
	}
	z.mu.Lock()
	z.records[r.Name] = append(z.records[r.Name], r)
	z.mu.Unlock()
}

// AddA is shorthand for an address record.
func (z *Zone) AddA(name, addr string) { z.Add(RR{Name: name, Type: TypeA, Data: addr}) }

// Delegate adds a delegation: child zone served by ns at glue address.
func (z *Zone) Delegate(child, ns, glue string) {
	z.Add(RR{Name: child, Type: TypeNS, Data: ns})
	if glue != "" {
		z.AddA(ns, glue)
	}
}

// lookup finds records for name/type, chasing CNAMEs within the zone.
// It returns (answers, delegation NS + glue, nxdomain).
func (z *Zone) lookup(name string, qtype uint16) (answer, authority, extra []RR, nx bool) {
	name = Canonical(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	for range 8 { // CNAME chase bound
		rrs := z.records[name]
		var cname string
		for _, r := range rrs {
			switch {
			case r.Type == qtype:
				answer = append(answer, r)
			case r.Type == TypeCNAME:
				cname = r.Data
				answer = append(answer, r)
			}
		}
		if len(answer) > 0 && cname == "" {
			return answer, nil, nil, false
		}
		if cname != "" && qtype != TypeCNAME {
			name = Canonical(cname)
			continue
		}
		break
	}
	if len(answer) > 0 {
		return answer, nil, nil, false
	}
	// Delegation: walk up the name looking for NS records below our
	// origin.
	for probe := name; probe != "" && probe != z.Origin; {
		for _, r := range z.records[probe] {
			if r.Type == TypeNS {
				authority = append(authority, r)
				for _, g := range z.records[Canonical(r.Data)] {
					if g.Type == TypeA {
						extra = append(extra, g)
					}
				}
			}
		}
		if len(authority) > 0 {
			return nil, authority, extra, false
		}
		if i := strings.IndexByte(probe, '.'); i >= 0 {
			probe = probe[i+1:]
		} else {
			probe = ""
		}
	}
	return nil, nil, nil, true
}

// Server answers queries for a zone over the simulated UDP network.
type Server struct {
	zone *Zone
	conn xport.Conn
	done atomic.Bool
}

// Serve starts an authoritative server for zone on the given UDP
// device, announced on port 53 in headers mode.
func Serve(proto *udp.Proto, zone *Zone) (*Server, error) {
	conn, err := proto.NewConn()
	if err != nil {
		return nil, err
	}
	if err := conn.Announce("53"); err != nil {
		conn.Close()
		return nil, err
	}
	s := &Server{zone: zone, conn: conn}
	proto.Clock().Go(s.loop)
	return s, nil
}

// Close stops the server.
func (s *Server) Close() {
	s.done.Store(true)
	s.conn.Close()
}

func (s *Server) loop() {
	buf := make([]byte, 8192)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return
		}
		if s.done.Load() {
			return
		}
		if n < udp.AddrHdrLen {
			continue
		}
		hdr := append([]byte(nil), buf[:udp.AddrHdrLen]...)
		q, err := Unmarshal(buf[udp.AddrHdrLen:n])
		if err != nil || q.Response {
			continue
		}
		ans, auth, extra, nx := s.zone.lookup(q.QName, q.QType)
		resp := &Msg{
			ID: q.ID, Response: true, Auth: true,
			QName: q.QName, QType: q.QType,
			Answer: ans, NS: auth, Extra: extra,
		}
		if nx {
			resp.Rcode = rcodeNX
		}
		out, err := resp.Marshal()
		if err != nil {
			continue
		}
		// Headers mode: the reply carries the querier's address.
		s.conn.Write(append(hdr, out...))
	}
}
