// Package cs implements the connection server of §4.2: "On each
// system a user level connection server process, CS, translates
// symbolic names to addresses. ... CS is a file server serving a
// single file, /net/cs. A client writes a symbolic name to /net/cs
// then reads one line for each matching destination reachable from
// this system. The lines are of the form filename message, where
// filename is the path of the clone file to open for a new connection
// and message is the string to write to it to make the connection."
//
// Supported meta-names, as in the paper:
//
//   - the special network name "net" selects any network in common
//     between source and destination supporting the service;
//   - a host of the form $attr names a database attribute, resolved
//     most-closely-associated to the source host (system, then
//     subnetwork, then network);
//   - a host of "*" produces announcement strings.
//
// For domain names CS first consults DNS and falls back to its own
// database tables, per the paper.
//
// CS is on the critical path of every dial, so the answer cache is
// built for storms: reads are lock-free (sharded atomic.Pointer
// snapshots, republished on write — the ether-demux pattern), entries
// carry a TTL and the ndb version they were computed against (an
// ndb.Replace invalidates everything instantly), ErrNotExist answers
// are negatively cached, eviction is a per-shard second-chance clock,
// and concurrent identical misses collapse into one computation
// (singleflight). A cache hit performs no allocation and takes no
// lock.
package cs

import (
	"strings"
	"sync"
	"time"

	"repro/internal/devtree"
	"repro/internal/ip"
	"repro/internal/ndb"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// NetworkKind distinguishes addressing families.
type NetworkKind int

const (
	// KindIP networks (tcp, udp, il) address by ip!port.
	KindIP NetworkKind = iota
	// KindDatakit networks address by hierarchical name!service.
	KindDatakit
	// KindPoint networks (cyclone) are point-to-point: any address.
	KindPoint
)

// Network describes one network available on this machine, in
// preference order.
type Network struct {
	Name  string // protocol directory name: "il", "tcp", "dk", ...
	Clone string // path of the clone file: "/net/il/clone"
	Kind  NetworkKind
}

// Config is the connection server's local knowledge. It is immutable
// after New.
type Config struct {
	// SysName is this machine's name in the database.
	SysName string
	// DB is the network database.
	DB *ndb.DB
	// Networks lists the networks this machine knows how to speak, in
	// preference order (the paper's CS answers IL before Datakit).
	// At most 64: the cache keys answers by a reachability bitmask.
	Networks []Network
	// Probe reports whether a clone file is currently reachable in
	// the machine's name space. Because imported networks appear in
	// /net like local ones (§6.1), a Datakit-only terminal that has
	// imported /net from a gateway starts answering tcp! queries the
	// moment the import lands. nil means all listed networks are
	// available.
	Probe func(clonePath string) bool
	// Resolve consults DNS for a domain name; nil or failing falls
	// back to the database, as the paper specifies.
	Resolve func(domain string) ([]ip.Addr, error)
	// Clock drives TTL expiry and the latency histogram; nil uses the
	// real clock. Under vclock.Virtual, cache expiry and singleflight
	// waits run on simulated time, so storm runs stay deterministic.
	Clock vclock.Clock
	// TTL bounds how long a positive answer is served without
	// revalidation (default DefaultTTL).
	TTL time.Duration
	// NegTTL bounds negative (ErrNotExist) answers (default
	// DefaultNegTTL).
	NegTTL time.Duration
	// CacheEntries bounds the total cached answers across all shards
	// (default DefaultCacheEntries).
	CacheEntries int
}

// Cache defaults: a translation is cheap to recompute, so the TTLs
// exist to bound staleness against DNS (ndb staleness is handled
// exactly by the version check), and the capacity to bound memory.
const (
	DefaultTTL          = 60 * time.Second
	DefaultNegTTL       = 5 * time.Second
	DefaultCacheEntries = 4096
)

// Answer is one translation result: destination lines in network
// preference order. The zero Answer is empty. Answers share the
// cache's immutable line slices, so Line and Len allocate nothing;
// Lines copies.
type Answer struct {
	lines []string
}

// Len returns the number of destination lines.
func (a Answer) Len() int { return len(a.lines) }

// Line returns the i'th destination line.
func (a Answer) Line(i int) string { return a.lines[i] }

// Lines returns a copy of the destination lines.
func (a Answer) Lines() []string { return append([]string(nil), a.lines...) }

// Server is the connection server.
type Server struct {
	cfg    Config
	clock  vclock.Clock
	ttl    time.Duration
	negTTL time.Duration

	// perShard is the per-shard entry capacity; shards evict by
	// second-chance clock past it.
	perShard int
	shards   [nShards]shard

	fmu     sync.Mutex // guards flights
	flights map[ckey]*flight

	// Counters and the event ring: CS is a user-level file server, so
	// its observability rides the same obs primitives as the kernel
	// protocol devices. Every query lands in exactly one of CacheHits,
	// SFWaits, Misses, or Errors, so the stats file balances:
	// queries == cache-hits + singleflight-waits + misses + errors.
	Queries   obs.Counter
	CacheHits obs.Counter // lock-free cache hits (NegHits ⊆ CacheHits)
	NegHits   obs.Counter // hits on negatively cached ErrNotExist
	SFWaits   obs.Counter // misses that joined another caller's flight
	Misses    obs.Counter // led a computation that produced an answer
	Errors    obs.Counter // bad query, no network, or a failed computation
	Evictions obs.Counter // entries evicted by the clock sweep
	Lat       obs.Hist    // per-query Translate latency
	trace     obs.Ring
	stats     *obs.Group
}

// New creates a connection server.
func New(cfg Config) *Server {
	if len(cfg.Networks) > 64 {
		panic("cs: more than 64 networks")
	}
	s := &Server{
		cfg:     cfg,
		clock:   vclock.Or(cfg.Clock),
		ttl:     cfg.TTL,
		negTTL:  cfg.NegTTL,
		flights: make(map[ckey]*flight),
	}
	if s.ttl <= 0 {
		s.ttl = DefaultTTL
	}
	if s.negTTL <= 0 {
		s.negTTL = DefaultNegTTL
	}
	entries := cfg.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	s.perShard = (entries + nShards - 1) / nShards
	if s.perShard < 1 {
		s.perShard = 1
	}
	s.stats = new(obs.Group).
		AddCounter("queries", &s.Queries).
		AddCounter("cache-hits", &s.CacheHits).
		AddCounter("neg-hits", &s.NegHits).
		AddCounter("singleflight-waits", &s.SFWaits).
		AddCounter("misses", &s.Misses).
		AddCounter("errors", &s.Errors).
		AddCounter("evictions", &s.Evictions).
		Add("entries", func() int64 {
			var n int64
			for i := range s.shards {
				n += int64(s.shards[i].entries())
			}
			return n
		}).
		Add("shards", func() int64 { return nShards })
	s.stats.AddHist("lat", &s.Lat)
	return s
}

// StatsGroup exposes the server's counters.
func (s *Server) StatsGroup() *obs.Group { return s.stats }

// Trace implements obs.Tracer: the server-wide query event ring.
func (s *Server) Trace() *obs.Ring { return &s.trace }

// dbVersion reads the database's combined version stamp — a few
// atomic loads, no locks.
func (s *Server) dbVersion() int64 {
	if s.cfg.DB == nil {
		return 0
	}
	return s.cfg.DB.Version()
}

// Translate resolves one symbolic name into destination lines. The
// hot path — a cache hit — is lock-free and allocation-free.
func (s *Server) Translate(query string) (Answer, error) {
	start := s.clock.Now()
	defer func() { s.Lat.Observe(s.clock.Since(start)) }()
	s.Queries.Inc()
	s.trace.Emit(obs.EvQuery, int64(len(query)), 0)

	q := trimSpace(query)
	netName, host, service, ok := splitQuery(q)
	if !ok {
		return Answer{}, s.fail(vfs.ErrBadArg)
	}
	mask := s.reachable(netName)
	if mask == 0 {
		return Answer{}, s.fail(vfs.ErrNoNet)
	}

	k := ckey{q: q, nets: mask}
	sh := s.shardFor(q)
	// ver is read before the cache probe and before any computation:
	// an ndb.Replace racing either leaves the entry stale, never
	// wrong. Key building allocates nothing — the query substring and
	// the reachability mask are the key.
	ver := s.dbVersion()
	now := start.UnixNano()
	if e := sh.lookup(k); e != nil && e.ver == ver && now < e.expire {
		e.used.Store(true)
		s.CacheHits.Inc()
		if e.err != nil {
			s.NegHits.Inc()
			s.trace.Emit(obs.EvCacheHit, 0, 1)
			return Answer{}, e.err
		}
		s.trace.Emit(obs.EvCacheHit, int64(len(e.lines)), 0)
		return Answer{lines: e.lines}, nil
	}

	lines, err, led := s.flightDo(k, sh, ver, now, func() ([]string, error) {
		return s.compute(netName, host, service, mask)
	})
	if !led {
		s.SFWaits.Inc()
		s.trace.Emit(obs.EvWait, int64(len(lines)), 0)
		return Answer{lines: lines}, err
	}
	if err != nil {
		return Answer{}, s.fail(err)
	}
	s.Misses.Inc()
	s.trace.Emit(obs.EvAnswer, int64(len(lines)), 0)
	return Answer{lines: lines}, nil
}

// fail counts and traces a failed translation.
func (s *Server) fail(err error) error {
	s.Errors.Inc()
	s.trace.Emit(obs.EvError, 0, 0)
	return err
}

// trimSpace is strings.TrimSpace restricted to ASCII space/tab/newline
// (all a query can carry), kept inlineable and allocation-free.
func trimSpace(s string) string {
	lo, hi := 0, len(s)
	for lo < hi && (s[lo] == ' ' || s[lo] == '\t' || s[lo] == '\n' || s[lo] == '\r') {
		lo++
	}
	for hi > lo && (s[hi-1] == ' ' || s[hi-1] == '\t' || s[hi-1] == '\n' || s[hi-1] == '\r') {
		hi--
	}
	return s[lo:hi]
}

// splitQuery splits net!host!service by byte indexing — no Split, no
// allocation. Extra !-separated fields beyond the service are ignored,
// as the Split-based parser did.
func splitQuery(q string) (netName, host, service string, ok bool) {
	i := strings.IndexByte(q, '!')
	if i < 0 {
		return "", "", "", false
	}
	netName = q[:i]
	rest := q[i+1:]
	if j := strings.IndexByte(rest, '!'); j >= 0 {
		host, service = rest[:j], rest[j+1:]
		if k := strings.IndexByte(service, '!'); k >= 0 {
			service = service[:k]
		}
	} else {
		host = rest
	}
	if host == "" {
		return "", "", "", false
	}
	return netName, host, service, true
}

// reachable returns the bitmask (over cfg.Networks indices) of
// networks matching netName that currently probe reachable.
func (s *Server) reachable(netName string) uint64 {
	var mask uint64
	for i := range s.cfg.Networks {
		n := &s.cfg.Networks[i]
		if netName != "net" && n.Name != netName {
			continue
		}
		if s.cfg.Probe == nil || s.cfg.Probe(n.Clone) {
			mask |= uint64(1) << uint(i)
		}
	}
	return mask
}

// compute performs the actual translation: the $attr rewrite (§4.2's
// most-closely-associated search) and the per-network address walk.
// Only the singleflight leader runs it.
func (s *Server) compute(netName, host, service string, mask uint64) ([]string, error) {
	// $attr: search the source system, then its subnetwork, then its
	// network. Resolved inside the computation — after the cache key
	// is fixed — so the key never depends on a rewrite the database
	// could change; the version stamp keeps the cached answer honest.
	if strings.HasPrefix(host, "$") {
		v, ok := s.cfg.DB.IPInfo(s.cfg.SysName, host[1:])
		if !ok {
			return nil, vfs.ErrNotExist
		}
		host = v
	}
	var lines []string
	for i := range s.cfg.Networks {
		if mask&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		n := &s.cfg.Networks[i]
		for _, addr := range s.hostAddrs(n, host, service) {
			lines = append(lines, n.Clone+" "+addr)
		}
	}
	if len(lines) == 0 {
		return nil, vfs.ErrNotExist
	}
	return lines, nil
}

// hostAddrs produces the address strings for host/service on network n.
func (s *Server) hostAddrs(n *Network, host, service string) []string {
	cfg := &s.cfg
	switch n.Kind {
	case KindPoint:
		// Point-to-point: the wire is the address.
		return []string{host + "!" + service}
	case KindDatakit:
		if host == "*" {
			if service == "" {
				return []string{"*"}
			}
			return []string{"*!" + service}
		}
		dest := host
		if e, ok := cfg.DB.FindSystem(host); ok {
			if dk, okd := e.Get("dk"); okd {
				dest = dk
			} else {
				return nil // not reachable over Datakit
			}
		} else if !strings.Contains(host, "/") {
			return nil // unknown and not a literal dk address
		}
		if service == "" {
			return nil
		}
		return []string{dest + "!" + service}
	default: // KindIP
		port := service
		if service != "" {
			p, ok := cfg.DB.ServicePort(n.Name, service)
			if !ok {
				return nil
			}
			port = p
		}
		if host == "*" {
			if port == "" {
				// No service: announce all services not
				// explicitly announced (§5.2).
				return []string{"*"}
			}
			return []string{"*!" + port}
		}
		var addrs []string
		add := func(a string) {
			if port != "" {
				addrs = append(addrs, a+"!"+port)
			} else {
				addrs = append(addrs, a)
			}
		}
		// Literal IP address.
		if a, err := ip.ParseAddr(host); err == nil {
			add(a.String())
			return addrs
		}
		// Database lookup by any name.
		if e, ok := cfg.DB.FindSystem(host); ok {
			for _, v := range e.GetAll("ip") {
				add(v)
			}
			return addrs
		}
		// Domain names go to DNS first; "if no DNS is reachable,
		// CS relies on its own tables" — and here the tables have
		// already missed, so DNS is the last resort.
		if cfg.Resolve != nil && strings.Contains(host, ".") {
			if ips, err := cfg.Resolve(host); err == nil {
				for _, a := range ips {
					add(a.String())
				}
			}
		}
		return addrs
	}
}

// Node returns the /net/cs directory: "cs" is the query file of §4.2
// (write a symbolic name, read destination lines), "stats" the
// server's counters and latency histogram in the same shape as the
// protocol devices' stats files.
func (s *Server) Node(owner string) vfs.Node {
	query := devtree.QueryFile(devtree.MkFile("cs", owner, 0666),
		func(req string) ([]string, error) {
			// The answer's lines are the cache's own, shared and
			// immutable; the query file serves them without a copy.
			ans, err := s.Translate(req)
			return ans.lines, err
		})
	stats := devtree.TextFile(devtree.MkFile("stats", owner, 0444),
		func() (string, error) { return s.stats.Render(), nil })
	return devtree.StaticDir(devtree.MkDir("cs", owner, 0555),
		map[string]vfs.Node{"cs": query, "stats": stats},
		[]string{"cs", "stats"})
}
