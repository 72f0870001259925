package ninep

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// AttachFunc resolves an attach request to the root of a served tree.
// It is how a server decides what uname sees for a given attach name —
// exportfs, for example, re-roots at the requested path of the
// exporting process's name space.
type AttachFunc func(uname, aname string) (vfs.Node, error)

// Server limits.
const (
	// DefaultWorkers bounds the shared request-dispatch pool.
	DefaultWorkers = 16
	// DefaultConnBudget bounds one connection's concurrently running
	// requests. It is deliberately larger than a client engine's
	// in-flight cap (64): a well-behaved client can never fill its own
	// budget, so the budget only bites when a connection floods past
	// what the protocol engine would issue — the hot client the
	// round-robin dispatcher is defending against.
	DefaultConnBudget = 128
)

// Server serves a file tree over 9P to many connections at once — the
// multi-tenant gateway of §6.1. Each connection keeps a private fid
// table, tag table, and flush state (ServeConn); requests from all
// connections dispatch through one bounded worker pool, round-robin
// over the connections so a hot client cannot starve the rest. It
// stays multithreaded in the way the paper requires of exportfs: a
// request that may block (open, create, read, and write may all block —
// a read on a listen file blocks until a call arrives) escalates to
// its own goroutine, and Tflush lets a client abandon it.
type Server struct {
	attach AttachFunc
	ck     vclock.Clock

	// Dispatcher state: connections with queued, in-budget work wait
	// in ready; pool workers take the front connection, run one of its
	// requests, and re-append it — round-robin across tenants.
	dmu      sync.Mutex
	ready    []*SrvConn
	nworkers int
	npend    int // queued requests across all connections

	cmu    sync.Mutex
	conns  map[int64]*SrvConn
	nextID int64

	// Server-wide figures for the stats file.
	Conns    obs.Counter   // connections accepted over the server's life
	RPCs     obs.Counter   // non-control requests completed
	WorkerHW obs.Watermark // most pool workers alive at once
}

// NewServer returns a server ready to accept connections, its
// per-request goroutines driven by ck; each accepted transport is
// served by ServeConn.
func NewServer(attach AttachFunc, ck vclock.Clock) *Server {
	return &Server{
		attach: attach,
		ck:     ck,
		conns:  make(map[int64]*SrvConn),
	}
}

// SrvConn is one client's connection to a Server: a private fid table,
// tag table, and flush state, so tenants with colliding fid or tag
// numbers never see each other, and one connection's death clunks only
// its own fids.
type SrvConn struct {
	s    *Server
	id   int64
	conn MsgConn

	// wmu serializes response writes. A write may park on a paced
	// medium, so the lock's waiters park through the clock.
	wmu vclock.Mutex

	mu    sync.Mutex
	uname string // first attach's uname, for the stats bill
	fids  map[uint32]*srvFid
	reqs  map[uint16]*srvReq // requests in flight, by tag

	// Dispatcher state, guarded by s.dmu.
	pend    []*srvReq // parsed requests not yet running
	running int       // requests executing (inline or escalated)
	inRing  bool      // queued in s.ready

	// Per-connection figures for the stats bill.
	rpcs       obs.Counter
	reads      obs.Counter
	writes     obs.Counter
	flushes    obs.Counter
	pendHW     obs.Watermark // deepest pend queue seen
	inflightHW obs.Watermark // most requests running at once
	lat        obs.Hist      // request latency, arrival to reply
}

// srvReq tracks one in-flight request. Flush state lives on the
// request instance, never in a map keyed by tag alone: after the
// 16-bit tag space wraps, a recycled tag can name a new request while
// a flushed predecessor's goroutine is still running (blocked in
// h.Read, say), and each instance must see only its own flush mark —
// a shared per-tag entry would let the new request consume the old
// one's mark and the old request answer under the new one's tag.
type srvReq struct {
	flushed atomic.Bool
	f       *Fcall
	start   time.Time
	tq      *ticketQ
	ticket  uint64
	// inline marks a request the pool worker may run on its own
	// goroutine: metadata operations, and reads a blockReader handle
	// serves from cache memory. Everything else may block
	// indefinitely and escalates to a request goroutine.
	inline bool
}

type srvFid struct {
	// mu is held across the node's Walk, Open, Stat and Create, which
	// are RPCs when the served tree is itself a mount (a gateway), so
	// a second request on the fid parks through the clock.
	mu   vclock.Mutex
	node vfs.Node
	h    vfs.Handle
	open bool
	mode int

	// With a pipelining client, several Treads (or Twrites) for one
	// fid can be in their goroutines at once; on a delimited or
	// stream device the order they reach the handle is the order the
	// data comes off (or goes onto) the stream. Each direction gets
	// a ticket queue: tickets are taken in the Serve loop, in wire
	// arrival order, and each request waits its turn before touching
	// the handle. Reads and writes queue independently so a read
	// blocked on an idle stream never holds up the writes that would
	// unblock it. The Serve loop makes each queue, under c.mu, for the
	// first request that takes a ticket from it: most fids (walked,
	// statted, read from cache) never do.
	rq, wq *ticketQ
}

// ticketQ serializes requests in ticket order: take in arrival order,
// wait your turn, done when finished.
type ticketQ struct {
	mu         sync.Mutex
	cond       vclock.Cond
	inited     bool
	next, turn uint64
}

func (q *ticketQ) take() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.next
	q.next++
	return t
}

func (q *ticketQ) wait(t uint64, ck vclock.Clock) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.turn != t {
		if !q.inited {
			q.cond.Init(ck, &q.mu)
			q.inited = true
		}
		q.cond.Wait()
	}
}

func (q *ticketQ) done() {
	q.mu.Lock()
	q.turn++
	if q.inited {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// Serve runs a single-connection 9P server on conn, its per-request
// goroutines driven by ck, until the transport fails or the client goes
// away. It returns the transport error (io.EOF for a clean close).
func Serve(conn MsgConn, attach AttachFunc, ck vclock.Clock) error {
	return NewServer(attach, ck).ServeConn(conn)
}

// ServeConn serves one accepted transport, blocking until it fails or
// the client goes away, and returns the transport error (io.EOF for a
// clean close). Many ServeConn calls run against one Server at once;
// when one returns, only that connection's fids are clunked.
func (s *Server) ServeConn(conn MsgConn) error {
	c := &SrvConn{
		s:    s,
		conn: conn,
		fids: make(map[uint32]*srvFid),
		reqs: make(map[uint16]*srvReq),
	}
	c.wmu.Init(s.ck)
	s.cmu.Lock()
	s.nextID++
	c.id = s.nextID
	s.conns[c.id] = c
	s.cmu.Unlock()
	s.Conns.Inc()
	defer s.teardown(c)
	for {
		msg, err := conn.ReadMsg()
		if err != nil {
			return err
		}
		f, err := UnmarshalFcall(msg)
		// UnmarshalFcall copies everything it keeps, so the wire
		// buffer goes back to the pool either way.
		block.PutBytes(msg)
		if err != nil {
			return err
		}
		switch f.Type {
		case Tnop, Tsession, Tauth, Tflush:
			// Control messages are answered synchronously so a
			// Tflush can never be overtaken by the work it
			// flushes — it never waits behind the connection's
			// queued requests.
			c.respond(f.Tag, c.process(f), nil)
		default:
			st := &srvReq{f: f, start: s.ck.Now()}
			// I/O requests take a per-fid, per-direction ticket
			// here, in wire arrival order, so they reach the
			// handle in the order the client issued them even
			// when a windowed transfer has several in flight.
			// Reads a blockReader handle can serve from cache
			// memory skip the ticket — offset-addressed reads of
			// a plain file commute — and run inline on the pool.
			switch f.Type {
			case Tread:
				c.reads.Inc()
				c.mu.Lock()
				if sf := c.fids[f.Fid]; sf != nil {
					if sf.open {
						if _, ok := sf.h.(blockReader); ok {
							st.inline = true
						}
					}
					if !st.inline {
						if sf.rq == nil {
							sf.rq = new(ticketQ)
						}
						st.tq = sf.rq
					}
				}
				c.mu.Unlock()
			case Twrite:
				c.writes.Inc()
				c.mu.Lock()
				if sf := c.fids[f.Fid]; sf != nil {
					if sf.wq == nil {
						sf.wq = new(ticketQ)
					}
					st.tq = sf.wq
				}
				c.mu.Unlock()
			case Topen, Tcreate:
				// May block (opening a device file can wait on
				// the device); escalates to its own goroutine.
			default:
				// Metadata operations complete without blocking;
				// the pool worker runs them inline.
				st.inline = true
			}
			if st.tq != nil {
				st.ticket = st.tq.take()
			}
			// Register the request instance. A stale instance may
			// still occupy the tag (flushed, its goroutine not yet
			// done); the client has seen its Rflush, so the tag is
			// legitimately recycled and the new instance simply
			// takes over the slot.
			c.mu.Lock()
			c.reqs[f.Tag] = st
			c.mu.Unlock()
			s.enqueue(c, st)
		}
	}
}

// enqueue queues one parsed request on its connection and makes the
// connection eligible for dispatch if its budget allows. The read loop
// never blocks here — a flood simply deepens the queue, where the
// round-robin dispatcher holds it to its budget.
func (s *Server) enqueue(c *SrvConn, st *srvReq) {
	s.dmu.Lock()
	c.pend = append(c.pend, st)
	s.npend++
	c.pendHW.Note(int64(len(c.pend)))
	if !c.inRing && c.running < DefaultConnBudget {
		c.inRing = true
		s.ready = append(s.ready, c)
	}
	spawn := s.nworkers < DefaultWorkers && s.nworkers < s.npend
	if spawn {
		s.nworkers++
		s.WorkerHW.Note(int64(s.nworkers))
	}
	s.dmu.Unlock()
	if spawn {
		s.ck.Go(s.worker)
	}
}

// worker is one pool goroutine: it repeatedly takes the front
// connection of the ready ring, runs one of its requests, and puts
// the connection back at the tail — round-robin over tenants, so
// every connection advances one request per turn of the ring no
// matter how deep any single queue is. Workers are spawned on demand
// and exit when the ring empties; an idle server holds no goroutines.
func (s *Server) worker() {
	for {
		s.dmu.Lock()
		if len(s.ready) == 0 {
			s.nworkers--
			s.dmu.Unlock()
			return
		}
		c := s.ready[0]
		s.ready = s.ready[1:]
		st := c.pend[0]
		c.pend = c.pend[1:]
		s.npend--
		c.running++
		c.inflightHW.Note(int64(c.running))
		if len(c.pend) > 0 && c.running < DefaultConnBudget {
			s.ready = append(s.ready, c)
		} else {
			c.inRing = false
		}
		s.dmu.Unlock()
		if st.inline {
			c.run(st)
			s.release(c)
		} else {
			// The request may block indefinitely (a read on a
			// listen file waits for a call); it gets the paper's
			// goroutine-per-request treatment, and counts against
			// the connection's budget until it completes.
			s.ck.Go(func() {
				c.run(st)
				s.release(c)
			})
		}
	}
}

// release returns one unit of a connection's budget and re-rings the
// connection if that makes queued work dispatchable again.
func (s *Server) release(c *SrvConn) {
	s.dmu.Lock()
	c.running--
	spawn := false
	if !c.inRing && len(c.pend) > 0 && c.running < DefaultConnBudget {
		c.inRing = true
		s.ready = append(s.ready, c)
		if s.nworkers < DefaultWorkers && s.nworkers < s.npend {
			s.nworkers++
			s.WorkerHW.Note(int64(s.nworkers))
			spawn = true
		}
	}
	s.dmu.Unlock()
	if spawn {
		s.ck.Go(s.worker)
	}
}

// run executes one dispatched request to completion.
func (c *SrvConn) run(st *srvReq) {
	s := c.s
	var r *Fcall
	if st.tq != nil {
		st.tq.wait(st.ticket, s.ck)
		// A request flushed while queued must not touch the
		// handle: on a delimited or stream device the read would
		// consume data the client has already abandoned.
		if !st.flushed.Load() {
			r = c.process(st.f)
		}
		st.tq.done()
	} else if !st.flushed.Load() {
		r = c.process(st.f)
	}
	if r != nil {
		c.respond(st.f.Tag, r, st)
	}
	c.mu.Lock()
	if c.reqs[st.f.Tag] == st {
		delete(c.reqs, st.f.Tag)
	}
	c.mu.Unlock()
	c.rpcs.Inc()
	s.RPCs.Inc()
	c.lat.Observe(s.ck.Since(st.start))
}

// teardown unregisters a dead connection and clunks its fids — only
// its own; other tenants' fid tables are untouched. Requests still
// queued are marked flushed so they drain through the dispatcher (and
// their ticket queues) without touching handles the teardown closed.
func (s *Server) teardown(c *SrvConn) {
	s.cmu.Lock()
	delete(s.conns, c.id)
	s.cmu.Unlock()
	c.mu.Lock()
	for _, st := range c.reqs {
		st.flushed.Store(true)
	}
	fids := c.fids
	c.fids = make(map[uint32]*srvFid)
	c.mu.Unlock()
	for _, sf := range fids {
		sf.mu.Lock()
		if sf.open && sf.h != nil {
			sf.h.Close()
		}
		sf.mu.Unlock()
	}
}

// blockReader is the structural interface a handle implements to
// serve reads zero-copy from pooled, refcounted cache memory (the
// ccache layer's handles do). ReadBlock returns a reference the
// caller must Free and the sub-window of the block's bytes answering
// the read; returning a nil block with a nil error declines, and the
// server falls back to the copy path.
type blockReader interface {
	ReadBlock(count int, off int64) (*block.Block, []byte, error)
}

// respond writes r under tag. st, non-nil for I/O requests, carries
// the request's flush mark: the check sits under wmu, the same lock
// that wrote the Rflush, so either the reply reaches the wire before
// the Rflush (permitted — the client still holds the tag reserved
// until Rflush arrives and drops the raced reply) or the mark is
// visible and the reply is suppressed. A reply for a flushed tag can
// therefore never follow its Rflush onto the wire, which is what lets
// the client recycle a tag the moment Rflush is delivered.
func (c *SrvConn) respond(tag uint16, r *Fcall, st *srvReq) {
	r.Tag = tag
	msg, err := MarshalFcall(r)
	if err != nil {
		msg, _ = MarshalFcall(&Fcall{Type: Rerror, Tag: tag, Ename: err.Error()})
	}
	if r.recycle != nil {
		// MarshalFcall copied Data into msg; the pooled read
		// buffer behind it goes back now.
		block.PutBytes(r.recycle)
		r.recycle, r.Data = nil, nil
	}
	if r.blk != nil {
		// MarshalFcall copied the cache fragment's window into msg
		// (the one mandatory copy); the reply's reference drops
		// here, and the fragment lives on for the next tenant.
		r.blk.Free()
		r.blk, r.Data = nil, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if st != nil && st.flushed.Load() {
		// The reply of a flushed request is dropped; its pooled
		// wire buffer is not.
		block.PutBytes(msg)
		return
	}
	c.conn.WriteMsg(msg)
}

// ConnStat is one connection's line of the stats bill.
type ConnStat struct {
	ID                           int64
	Uname                        string
	RPCs, Reads, Writes, Flushes int64
	PendHW, InflightHW           int64
	Lat                          obs.HistSnap
}

// ConnStats returns the live connections' bills, ordered by
// connection id (arrival order), so the rendering is deterministic.
func (s *Server) ConnStats() []ConnStat {
	s.cmu.Lock()
	conns := make([]*SrvConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.cmu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	out := make([]ConnStat, 0, len(conns))
	for _, c := range conns {
		c.mu.Lock()
		uname := c.uname
		c.mu.Unlock()
		out = append(out, ConnStat{
			ID:         c.id,
			Uname:      uname,
			RPCs:       c.rpcs.Load(),
			Reads:      c.reads.Load(),
			Writes:     c.writes.Load(),
			Flushes:    c.flushes.Load(),
			PendHW:     c.pendHW.Load(),
			InflightHW: c.inflightHW.Load(),
			Lat:        c.lat.SnapshotHist(),
		})
	}
	return out
}

// Stats renders the server's stats file: scalar server-wide lines in
// the obs "name: value" shape, then one bill line per live connection.
// The per-connection lines carry a space in their name field so
// obs.ParseStats skips them, like the per-conversation summaries in
// the protocol devices' stats files.
func (s *Server) Stats() string {
	var b strings.Builder
	conns := s.ConnStats()
	fmt.Fprintf(&b, "conns: %d\nconns-open: %d\nrpcs: %d\nworkers-max: %d\n",
		s.Conns.Load(), len(conns), s.RPCs.Load(), s.WorkerHW.Load())
	for _, cs := range conns {
		uname := cs.Uname
		if uname == "" {
			uname = "-"
		}
		avg := time.Duration(0)
		if cs.Lat.Count > 0 {
			avg = time.Duration(cs.Lat.SumNs / cs.Lat.Count)
		}
		fmt.Fprintf(&b, "conn %d %s: rpcs %d reads %d writes %d flushes %d pend-hw %d inflight-hw %d avg %s p99 %s\n",
			cs.ID, uname, cs.RPCs, cs.Reads, cs.Writes, cs.Flushes,
			cs.PendHW, cs.InflightHW, avg, cs.Lat.Quantile(0.99))
	}
	return b.String()
}

func rerror(err error) *Fcall {
	e := err.Error()
	if len(e) >= ErrLen {
		e = e[:ErrLen-1]
	}
	return &Fcall{Type: Rerror, Ename: e}
}

func (c *SrvConn) newFid(node vfs.Node) *srvFid {
	sf := &srvFid{node: node}
	sf.mu.Init(c.s.ck)
	return sf
}

func (c *SrvConn) getFid(fid uint32) (*srvFid, *Fcall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sf, ok := c.fids[fid]
	if !ok {
		return nil, rerror(fmt.Errorf("unknown fid %d", fid))
	}
	return sf, nil
}

func (c *SrvConn) process(t *Fcall) *Fcall {
	switch t.Type {
	case Tnop:
		return &Fcall{Type: Rnop}
	case Tsession:
		return &Fcall{Type: Rsession, Chal: t.Chal}
	case Tauth:
		// Toy authentication: echo a ticket derived from the uname.
		return &Fcall{Type: Rauth, Chal: "ticket-" + t.Uname}
	case Tflush:
		// Mark the in-flight instance before the Rflush is written
		// (respond checks the mark under wmu): once the Rflush is on
		// the wire, no reply for oldtag can follow it. If the request
		// already answered, there is nothing to abort; if it is still
		// blocked in a handle, its eventual reply is suppressed and
		// its slot in reqs is reclaimed by comparing instances.
		c.flushes.Inc()
		c.mu.Lock()
		st := c.reqs[t.Oldtag]
		c.mu.Unlock()
		if st != nil {
			st.flushed.Store(true)
		}
		return &Fcall{Type: Rflush}
	case Tattach:
		root, err := c.s.attach(t.Uname, t.Aname)
		if err != nil {
			return rerror(err)
		}
		d, err := root.Stat()
		if err != nil {
			return rerror(err)
		}
		c.mu.Lock()
		if _, dup := c.fids[t.Fid]; dup {
			c.mu.Unlock()
			return rerror(vfs.ErrInUse)
		}
		if c.uname == "" {
			c.uname = t.Uname
		}
		c.fids[t.Fid] = c.newFid(root)
		c.mu.Unlock()
		return &Fcall{Type: Rattach, Fid: t.Fid, Qid: d.Qid}
	case Tclone:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		if sf.open {
			sf.mu.Unlock()
			return rerror(vfs.ErrBadUseFd)
		}
		node := sf.node
		sf.mu.Unlock()
		c.mu.Lock()
		if _, dup := c.fids[t.Newfid]; dup {
			c.mu.Unlock()
			return rerror(vfs.ErrInUse)
		}
		c.fids[t.Newfid] = c.newFid(node)
		c.mu.Unlock()
		return &Fcall{Type: Rclone, Fid: t.Fid}
	case Twalk:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if sf.open {
			return rerror(vfs.ErrBadUseFd)
		}
		n, err := sf.node.Walk(t.Name)
		if err != nil {
			return rerror(err)
		}
		d, err := n.Stat()
		if err != nil {
			return rerror(err)
		}
		sf.node = n
		return &Fcall{Type: Rwalk, Fid: t.Fid, Qid: d.Qid}
	case Tclwalk:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		if sf.open {
			sf.mu.Unlock()
			return rerror(vfs.ErrBadUseFd)
		}
		n, err := sf.node.Walk(t.Name)
		sf.mu.Unlock()
		if err != nil {
			return rerror(err)
		}
		d, err := n.Stat()
		if err != nil {
			return rerror(err)
		}
		c.mu.Lock()
		if _, dup := c.fids[t.Newfid]; dup {
			c.mu.Unlock()
			return rerror(vfs.ErrInUse)
		}
		c.fids[t.Newfid] = c.newFid(n)
		c.mu.Unlock()
		return &Fcall{Type: Rclwalk, Fid: t.Newfid, Qid: d.Qid}
	case Topen:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if sf.open {
			return rerror(vfs.ErrBadUseFd)
		}
		h, err := sf.node.Open(int(t.Mode))
		if err != nil {
			return rerror(err)
		}
		d, err := sf.node.Stat()
		if err != nil {
			h.Close()
			return rerror(err)
		}
		sf.h, sf.open, sf.mode = h, true, int(t.Mode)
		return &Fcall{Type: Ropen, Fid: t.Fid, Qid: d.Qid}
	case Tcreate:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if sf.open {
			return rerror(vfs.ErrBadUseFd)
		}
		cr, ok := sf.node.(vfs.Creator)
		if !ok {
			return rerror(vfs.ErrPerm)
		}
		n, h, err := cr.Create(t.Name, t.Perm, int(t.Mode))
		if err != nil {
			return rerror(err)
		}
		d, err := n.Stat()
		if err != nil {
			h.Close()
			return rerror(err)
		}
		sf.node, sf.h, sf.open, sf.mode = n, h, true, int(t.Mode)
		return &Fcall{Type: Rcreate, Fid: t.Fid, Qid: d.Qid}
	case Tread:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		h, open := sf.h, sf.open
		sf.mu.Unlock()
		if !open {
			return rerror(vfs.ErrBadUseFd)
		}
		if t.Count > MaxFData {
			return rerror(ErrDataLen)
		}
		if br, ok := h.(blockReader); ok {
			blk, data, err := br.ReadBlock(int(t.Count), t.Offset)
			if err != nil {
				return rerror(err)
			}
			if blk != nil {
				// The reply aliases the cache fragment; respond
				// drops the reference after marshaling.
				return &Fcall{Type: Rread, Fid: t.Fid, Data: data, blk: blk}
			}
			// Declined (unaligned or uncacheable); copy path below.
		}
		buf := block.GetBytes(int(t.Count))
		n, err := h.Read(buf, t.Offset)
		if err != nil {
			block.PutBytes(buf)
			return rerror(err)
		}
		return &Fcall{Type: Rread, Fid: t.Fid, Data: buf[:n], recycle: buf}
	case Twrite:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		h, open := sf.h, sf.open
		sf.mu.Unlock()
		if !open {
			return rerror(vfs.ErrBadUseFd)
		}
		n, err := h.Write(t.Data, t.Offset)
		if err != nil {
			return rerror(err)
		}
		return &Fcall{Type: Rwrite, Fid: t.Fid, Count: uint16(n)}
	case Tclunk, Tremove:
		c.mu.Lock()
		sf, ok := c.fids[t.Fid]
		delete(c.fids, t.Fid)
		c.mu.Unlock()
		if !ok {
			return rerror(fmt.Errorf("unknown fid %d", t.Fid))
		}
		sf.mu.Lock()
		if sf.open && sf.h != nil {
			sf.h.Close()
		}
		var err error
		if t.Type == Tremove {
			if rm, ok := sf.node.(vfs.Remover); ok {
				err = rm.Remove()
			} else {
				err = vfs.ErrPerm
			}
		}
		sf.mu.Unlock()
		if err != nil {
			return rerror(err)
		}
		if t.Type == Tremove {
			return &Fcall{Type: Rremove, Fid: t.Fid}
		}
		return &Fcall{Type: Rclunk, Fid: t.Fid}
	case Tstat:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		node := sf.node
		sf.mu.Unlock()
		d, err := node.Stat()
		if err != nil {
			return rerror(err)
		}
		return &Fcall{Type: Rstat, Fid: t.Fid, Stat: d}
	case Twstat:
		sf, e := c.getFid(t.Fid)
		if e != nil {
			return e
		}
		sf.mu.Lock()
		node := sf.node
		sf.mu.Unlock()
		w, ok := node.(vfs.Wstater)
		if !ok {
			return rerror(vfs.ErrPerm)
		}
		if err := w.Wstat(t.Stat); err != nil {
			return rerror(err)
		}
		return &Fcall{Type: Rwstat, Fid: t.Fid}
	default:
		return rerror(ErrBadType)
	}
}
