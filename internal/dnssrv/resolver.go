package dnssrv

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/ip"
	"repro/internal/udp"
	"repro/internal/vclock"
)

// Resolver errors.
var (
	ErrNoAnswer = errors.New("dns: no answer")
	ErrNX       = errors.New("dns: name does not exist")
	ErrTimeout  = errors.New("dns: query timed out")
)

const queryTimeout = 500 * time.Millisecond

// Resolver performs recursive resolution from root hints, caching what
// it learns from the network.
type Resolver struct {
	proto *udp.Proto
	roots []ip.Addr
	ck    vclock.Clock

	mu    vclock.Lock
	cache map[cacheKey]cacheVal
	rng   *rand.Rand

	// Queries counts wire queries (cache effectiveness tests).
	Queries int64
}

type cacheKey struct {
	name string
	typ  uint16
}

type cacheVal struct {
	rrs    []RR
	expiry time.Time
}

// NewResolver creates a resolver that speaks UDP via proto and starts
// from the given root servers.
func NewResolver(proto *udp.Proto, roots []ip.Addr) *Resolver {
	ck := proto.Clock()
	r := &Resolver{
		proto: proto,
		roots: roots,
		ck:    ck,
		cache: make(map[cacheKey]cacheVal),
		rng:   rand.New(rand.NewSource(ck.Now().UnixNano())),
	}
	r.mu.Init(ck)
	return r
}

// Lookup resolves name/qtype recursively. It returns the answer
// records (following CNAME chains across zones).
func (r *Resolver) Lookup(name string, qtype uint16) ([]RR, error) {
	name = Canonical(name)
	if rrs, ok := r.cached(name, qtype); ok {
		return rrs, nil
	}
	rrs, err := r.resolve(name, qtype, 0)
	if err != nil {
		return nil, err
	}
	r.store(name, qtype, rrs)
	return rrs, nil
}

// LookupA resolves a host name to its addresses.
func (r *Resolver) LookupA(name string) ([]ip.Addr, error) {
	rrs, err := r.Lookup(name, TypeA)
	if err != nil {
		return nil, err
	}
	var out []ip.Addr
	for _, rr := range rrs {
		if rr.Type != TypeA {
			continue
		}
		if a, err := ip.ParseAddr(rr.Data); err == nil {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, ErrNoAnswer
	}
	return out, nil
}

func (r *Resolver) cached(name string, qtype uint16) ([]RR, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cache[cacheKey{name, qtype}]
	if !ok || r.ck.Now().After(v.expiry) {
		delete(r.cache, cacheKey{name, qtype})
		return nil, false
	}
	return v.rrs, true
}

func (r *Resolver) store(name string, qtype uint16, rrs []RR) {
	ttl := uint32(3600)
	for _, rr := range rrs {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	r.mu.Lock()
	r.cache[cacheKey{name, qtype}] = cacheVal{
		rrs:    rrs,
		expiry: r.ck.Now().Add(time.Duration(ttl) * time.Second),
	}
	r.mu.Unlock()
}

// resolve walks delegations from the roots.
func (r *Resolver) resolve(name string, qtype uint16, depth int) ([]RR, error) {
	if depth > 8 {
		return nil, ErrNoAnswer
	}
	servers := append([]ip.Addr(nil), r.roots...)
	for range 16 { // delegation walk bound
		msg, err := r.queryAny(servers, name, qtype)
		if err != nil {
			return nil, err
		}
		if msg.Rcode == rcodeNX {
			return nil, ErrNX
		}
		if len(msg.Answer) > 0 {
			// Cross-zone CNAME: restart for the target if the
			// answer has no terminal record.
			var final []RR
			cname := ""
			for _, rr := range msg.Answer {
				if rr.Type == qtype {
					final = append(final, rr)
				}
				if rr.Type == TypeCNAME {
					cname = rr.Data
				}
			}
			if len(final) > 0 || qtype == TypeCNAME {
				return msg.Answer, nil
			}
			if cname != "" {
				more, err := r.resolve(Canonical(cname), qtype, depth+1)
				if err != nil {
					return nil, err
				}
				return append(msg.Answer, more...), nil
			}
			return msg.Answer, nil
		}
		// Delegation: collect the next servers from NS + glue.
		var next []ip.Addr
		for _, nsrr := range msg.NS {
			if nsrr.Type != TypeNS {
				continue
			}
			for _, g := range msg.Extra {
				if g.Type == TypeA && Canonical(g.Name) == Canonical(nsrr.Data) {
					if a, err := ip.ParseAddr(g.Data); err == nil {
						next = append(next, a)
					}
				}
			}
		}
		if len(next) == 0 {
			return nil, ErrNoAnswer
		}
		servers = next
	}
	return nil, ErrNoAnswer
}

// queryAny tries the servers in order until one answers.
func (r *Resolver) queryAny(servers []ip.Addr, name string, qtype uint16) (*Msg, error) {
	var lastErr error = ErrTimeout
	for _, s := range servers {
		msg, err := r.query(s, name, qtype)
		if err == nil {
			return msg, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// query sends one question to one server with a timeout.
func (r *Resolver) query(server ip.Addr, name string, qtype uint16) (*Msg, error) {
	conn, err := r.proto.NewConn()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Connect(ip.HostPort(server, 53)); err != nil {
		return nil, err
	}
	r.mu.Lock()
	id := uint16(r.rng.Intn(0x10000))
	r.Queries++
	r.mu.Unlock()
	q := &Msg{ID: id, QName: name, QType: qtype}
	pkt, err := q.Marshal()
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(pkt); err != nil {
		return nil, err
	}
	type result struct {
		msg *Msg
		err error
	}
	ch := vclock.NewMailbox[result](r.ck, 1)
	r.ck.Go(func() {
		buf := make([]byte, 8192)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				ch.TrySend(result{nil, err})
				return
			}
			m, err := Unmarshal(buf[:n])
			if err != nil || !m.Response || m.ID != id {
				continue
			}
			ch.TrySend(result{m, nil})
			return
		}
	})
	// The timeout closes the mailbox; an already-sent reply is drained
	// first. The deferred conn.Close unblocks the reader afterwards.
	timer := r.ck.AfterFunc(queryTimeout, func() { ch.Close() })
	res, ok := ch.Recv()
	timer.Stop()
	if !ok {
		return nil, ErrTimeout
	}
	return res.msg, res.err
}
