package ninep

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Pipelining constants. DefaultWindow is how many fragment RPCs a large
// Fid.Read or Fid.Write keeps in flight at once — the mount driver's
// sliding window — on a file-tree client. maxInFlight bounds the tags
// outstanding on the whole client; when it is reached, new RPCs block
// until a reply frees a tag (tag-exhaustion backpressure) rather than
// spinning over the tag space.
const (
	DefaultWindow = 8
	maxInFlight   = 64

	// maxTags is the number of usable tags: 1..NoTag-1. Tag 0 is
	// avoided by convention and NoTag is reserved.
	maxTags = int(NoTag) - 1
)

// ClientConfig tunes the mount driver's RPC engine. The zero value is
// the device-tree profile, safe for any server, including live device
// trees: every Fid.Read and Fid.Write issues one fragment RPC at a
// time, in order. FileTree is the other profile.
type ClientConfig struct {
	// Window is the number of fragment RPCs in flight at once on a
	// file-tree client: the fan-out of a large read or write and the
	// depth of the mount driver's write-behind. 0 means
	// DefaultWindow; 1 makes every fragment wait for the previous
	// reply even on a file tree.
	Window int
	// FileTree says the served tree holds plain files (a dump file
	// system, a source tree; mnt.FileConfig sets it): transfers larger
	// than MaxFData on plain-file fids fan into up to Window
	// concurrent fragment RPCs, and the mount driver reads ahead and
	// writes behind. All three speculate or reorder I/O, so never set
	// it for an imported device tree — on a delimited or stream device
	// a speculative Tread past a message boundary consumes data the
	// caller never asked for, even if its reply is later flushed.
	FileTree bool
	// Clock drives the client's goroutines and latency measurements.
	// It is required.
	Clock vclock.Clock

	// inFlightCap lowers maxInFlight for this package's tests.
	inFlightCap int
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.inFlightCap <= 0 {
		c.inFlightCap = maxInFlight
	}
	if c.Window > c.inFlightCap {
		c.Window = c.inFlightCap
	}
	return c
}

// Client is the RPC engine of the mount driver (§2.1): it packs
// procedural operations into 9P messages, demultiplexes responses among
// the processes using the file server, and manages fids and tags.
type Client struct {
	conn MsgConn
	cfg  ClientConfig
	ck   vclock.Clock

	// wmu serializes WriteMsg among the processes sharing the mount. A
	// write may park on a paced medium, so its waiters park through
	// the clock.
	wmu vclock.Mutex

	mu      vclock.Lock
	tagFree vclock.Cond // signaled whenever a tag is released
	// tags holds one entry per outstanding tag. A non-nil Pending
	// is an RPC awaiting its reply; a nil value is a tag abandoned by
	// Tflush but still reserved until the flush completes, so the
	// server's late reply (if any) is dropped on the floor instead of
	// reaching a recycled tag's new owner.
	tags    map[uint16]*Pending
	nextTag uint16
	nextFid uint32
	err     error
	// free chains the finished Pendings through their next fields,
	// for the next RPC to reuse. It starts as first, so a client whose
	// RPCs never overlap more than a window's worth makes no Pending.
	free  *Pending
	first [DefaultWindow]Pending

	// Mount-driver observability: RPC count and latency, Tflush count,
	// and the in-flight window high-water mark. The mnt device renders
	// these into /net/mnt/stats.
	RPCs     atomic.Int64
	Flushes  atomic.Int64
	RPCHist  obs.Hist
	WindowHW obs.Watermark
}

// NewClient starts a 9P client on conn, configured by cfg, and
// performs the session handshake. The caller then Attaches to obtain
// a root fid.
func NewClient(conn MsgConn, cfg ClientConfig) (*Client, error) {
	cl := &Client{
		conn: conn,
		cfg:  cfg.withDefaults(),
		ck:   cfg.Clock,
		tags: make(map[uint16]*Pending),
	}
	cl.wmu.Init(cl.ck)
	cl.mu.Init(cl.ck)
	cl.tagFree.Init(cl.ck, &cl.mu)
	for i := range cl.first {
		cl.free = cl.newPending(&cl.first[i], cl.free)
	}
	cl.ck.Go(cl.demux)
	if _, err := cl.RPC(&Fcall{Type: Tsession, Chal: "repro"}); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Window reports the configured fragment window.
func (cl *Client) Window() int { return cl.cfg.Window }

// Clock returns the clock the client runs on.
func (cl *Client) Clock() vclock.Clock { return cl.ck }

// StatsGroup renders the client's counters and RPC latency histogram
// as they stand when it is read.
func (cl *Client) StatsGroup() *obs.Group {
	return new(obs.Group).
		AddAtomic("rpcs", &cl.RPCs).
		AddAtomic("flushes", &cl.Flushes).
		Add("window-max", cl.WindowHW.Load).
		AddHist("rpc", &cl.RPCHist)
}

// Dead reports whether the client has failed or been closed; RPCs on a
// dead client fail immediately without blocking.
func (cl *Client) Dead() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err != nil
}

// demux reads responses and hands each to the waiting process, "the
// mount driver ... demultiplexes among processes using the file
// server".
func (cl *Client) demux() {
	for {
		msg, err := cl.conn.ReadMsg()
		if err != nil {
			cl.fail(err)
			return
		}
		// The reply is decoded before any tag is touched, so a
		// malformed one fails the client with the tag table intact.
		// An Rread's data stays in its wire buffer, which the reply
		// owns from here on.
		var f Fcall
		if err := decode(msg, &f); err != nil {
			cl.fail(err)
			return
		}
		cl.mu.Lock()
		p, ok := cl.tags[f.Tag]
		if ok {
			delete(cl.tags, f.Tag)
			cl.tagFree.Broadcast()
		}
		if p != nil {
			p.r = f
			p.done = true
			p.wake.Broadcast()
		}
		cl.mu.Unlock()
		if p == nil {
			// The tag was flushed (the reply raced the Tflush) or
			// was never ours: the reply is discarded.
			f.free()
		}
	}
}

// fail kills the client with err and wakes every waiter. The RPCs in
// flight wake in tag order (issue order, until the tag space wraps),
// so on the virtual clock a dead client fails them the same way every
// run. At most maxInFlight RPCs and as many Tflushes are in flight, so
// their tags sort on the stack.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.err == nil {
		cl.err = err
	}
	cl.tagFree.Broadcast()
	var buf [2 * maxInFlight]uint16
	waiting := buf[:0]
	for tag, p := range cl.tags {
		if p != nil {
			waiting = append(waiting, tag)
		}
	}
	slices.Sort(waiting)
	for _, tag := range waiting {
		cl.tags[tag].wake.Broadcast()
	}
	clear(cl.tags)
}

// Close tears down the connection; outstanding RPCs fail.
func (cl *Client) Close() error {
	err := cl.conn.Close()
	cl.fail(ErrConnClosed)
	return err
}

// allocTag reserves a free tag for a request of type req and returns
// its Pending, a finished one reused if the client has one, blocking
// while the in-flight window is full or the tag space is exhausted.
// Tflush is exempt from the in-flight cap (flushExempt): a flush must
// be able to proceed even when the cap is saturated by the very
// requests it abandons.
func (cl *Client) allocTag(req uint8, flushExempt bool) (*Pending, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	limit := cl.cfg.inFlightCap
	if flushExempt {
		limit = maxTags
	}
	for cl.err == nil && len(cl.tags) >= limit {
		cl.tagFree.Wait()
	}
	if cl.err != nil {
		return nil, cl.err
	}
	p := cl.free
	if p != nil {
		cl.free, p.next = p.next, nil
	} else {
		p = cl.newPending(new(Pending), nil)
	}
	p.req = req
	// len(tags) < maxTags here, so a free tag exists and the scan
	// terminates.
	for {
		cl.nextTag++
		if cl.nextTag == NoTag {
			cl.nextTag = 1
		}
		if _, inUse := cl.tags[cl.nextTag]; !inUse {
			p.tag = cl.nextTag
			cl.tags[p.tag] = p
			cl.WindowHW.Note(int64(len(cl.tags)))
			return p, nil
		}
	}
}

// newPending readies p for cl, chained to next.
func (cl *Client) newPending(p *Pending, next *Pending) *Pending {
	p.cl, p.next = cl, next
	p.wake.Init(cl.ck, &cl.mu)
	return p
}

// recycleLocked puts the finished p on the free list. Nothing may
// touch p afterwards: its tag is out of the table, so demux cannot
// reach it, and its reply, if any, has gone to its reader or been
// freed.
func (cl *Client) recycleLocked(p *Pending) {
	p.r = Fcall{}
	p.done = false
	p.flush = nil
	p.next, cl.free = cl.free, p
}

// unsend releases the tag of p, reserved by allocTag but never
// answered (a marshal or transport error), and recycles p.
func (cl *Client) unsend(p *Pending) {
	cl.mu.Lock()
	delete(cl.tags, p.tag)
	cl.tagFree.Broadcast()
	cl.recycleLocked(p)
	cl.mu.Unlock()
}

// Pending is an RPC in flight: the asynchronous half of the mount
// driver. Exactly one of Wait or Flush must be called, once; after it
// the Pending is spent, and the client reuses it for a later RPC, so
// an RPC in the steady state allocates nothing on the client.
type Pending struct {
	cl    *Client
	tag   uint16
	req   uint8
	asked uint16 // bytes a Window's fragment asked to move
	start time.Time

	// The reply lands here: demux fills r, sets done and wakes the
	// waiter, all under cl.mu.
	r    Fcall
	done bool
	wake vclock.Cond

	// A Window chains its fragments through the Pendings themselves,
	// so queueing one allocates nothing; the client's free list
	// chains the finished ones the same way.
	next  *Pending
	flush *Pending // the Tflush abandoning this RPC, while flushMany awaits it
}

// RPCAsync sends t now and returns a Pending whose Wait delivers the
// reply. Replies to distinct Pendings may arrive in any order; the
// request hits the wire before RPCAsync returns, so two RPCAsyncs from
// one goroutine reach the server in call order.
func (cl *Client) RPCAsync(t *Fcall) (*Pending, error) {
	return cl.sendAsync(t, false)
}

func (cl *Client) sendAsync(t *Fcall, flushExempt bool) (*Pending, error) {
	p, err := cl.allocTag(t.Type, flushExempt)
	if err != nil {
		return nil, err
	}
	t.Tag = p.tag
	msg, err := MarshalFcall(t)
	if err != nil {
		cl.unsend(p)
		return nil, err
	}
	cl.wmu.Lock()
	err = cl.conn.WriteMsg(msg)
	cl.wmu.Unlock()
	if err != nil {
		cl.unsend(p)
		return nil, err
	}
	cl.RPCs.Add(1)
	p.start = cl.ck.Now()
	return p, nil
}

// Wait blocks for the reply and returns it; p goes back to the client.
// On an Rerror response it returns the error string as an error. An
// Rread's Data is its wire buffer, a block the reply owns: a Window's
// Reap takes it over, and a caller that waits for an Rread by hand
// must free it itself.
func (p *Pending) Wait() (Fcall, error) {
	cl := p.cl
	cl.mu.Lock()
	for !p.done && cl.err == nil {
		p.wake.Wait()
	}
	r, done, req, start, err := p.r, p.done, p.req, p.start, cl.err
	cl.recycleLocked(p)
	cl.mu.Unlock()
	if !done {
		return Fcall{}, err
	}
	cl.RPCHist.Observe(cl.ck.Since(start))
	if r.Type == Rerror {
		return Fcall{}, errors.New(r.Ename)
	}
	if r.Type != req+1 {
		r.free()
		return Fcall{}, fmt.Errorf("9P: got %s in response to %s", TypeName(r.Type), TypeName(req))
	}
	return r, nil
}

// abandon marks the pending's tag as flushed (nil in the tag table) so
// demux drops a late reply. It reports whether the reply was still
// outstanding; if false the reply has already been delivered (or the
// client failed) and no Tflush is needed.
func (p *Pending) abandon() bool {
	p.cl.mu.Lock()
	defer p.cl.mu.Unlock()
	if q, ok := p.cl.tags[p.tag]; ok && q == p {
		p.cl.tags[p.tag] = nil
		return true
	}
	return false
}

// Flush abandons the RPC: any reply is discarded, and a Tflush tells
// the server to forget the request (§2.1's "flush an I/O transaction
// when an interrupt is received"). It blocks until the Rflush arrives
// so the tag is quiet before reuse.
func (p *Pending) Flush() {
	p.cl.flushMany(p)
}

// flushMany abandons a chain of in-flight RPCs, putting every Tflush
// on the wire before awaiting the first Rflush so a truncated windowed
// transfer pays one round trip, not one per speculative fragment.
// Tflush allocation bypasses the in-flight cap; it only needs a free
// tag in the 16-bit space. After the last Rflush the whole chain goes
// back to the client.
func (cl *Client) flushMany(head *Pending) {
	if head == nil {
		return
	}
	for p := head; p != nil; p = p.next {
		if !p.abandon() {
			// The reply has landed (or the client died): nobody
			// will reap it now.
			p.r.free()
			continue
		}
		cl.Flushes.Add(1)
		// On an error the transport is dead: fail() has already
		// emptied the tag table; nothing left to release.
		p.flush, _ = cl.sendAsync(&Fcall{Type: Tflush, Oldtag: p.tag}, true)
	}
	for p := head; p != nil; p = p.next {
		if p.flush != nil {
			p.flush.Wait()
			// The flush is answered: release the abandoned tag's
			// reservation (demux may already have dropped a raced
			// reply and freed it).
			p.release()
		}
	}
	cl.mu.Lock()
	for p := head; p != nil; {
		next := p.next
		cl.recycleLocked(p)
		p = next
	}
	cl.mu.Unlock()
}

// release frees the tag of an abandoned pending once its flush has
// completed, if demux hasn't already consumed a raced reply.
func (p *Pending) release() {
	p.cl.mu.Lock()
	if q, ok := p.cl.tags[p.tag]; ok && q == nil {
		delete(p.cl.tags, p.tag)
		p.cl.tagFree.Broadcast()
	}
	p.cl.mu.Unlock()
}

// RPC performs one request/response exchange. On an Rerror response it
// returns the error string as an error.
func (cl *Client) RPC(t *Fcall) (Fcall, error) {
	p, err := cl.RPCAsync(t)
	if err != nil {
		return Fcall{}, err
	}
	return p.Wait()
}

func (cl *Client) newFid() uint32 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.nextFid++
	return cl.nextFid
}

// Fid is a remote file handle: the client end of a server fid. It is a
// value: Attach, Clone and CloneWalk return one for their caller to
// hold where it likes, in the mount driver's node or handle itself.
// Walk, Open and Create move the fid, so they take a pointer.
type Fid struct {
	cl  *Client
	fid uint32
	qid vfs.Qid
}

// Attach authenticates uname to the server and returns a fid for the
// root of the tree named by aname.
func (cl *Client) Attach(uname, aname string) (Fid, error) {
	fid := cl.newFid()
	r, err := cl.RPC(&Fcall{Type: Tattach, Fid: fid, Uname: uname, Aname: aname})
	if err != nil {
		return Fid{}, err
	}
	return Fid{cl: cl, fid: fid, qid: r.Qid}, nil
}

// Client returns the client the fid lives on.
func (f *Fid) Client() *Client { return f.cl }

// Clone duplicates the fid (Tclone), like dup(2) on a channel.
func (f *Fid) Clone() (Fid, error) {
	nf := f.cl.newFid()
	if _, err := f.cl.RPC(&Fcall{Type: Tclone, Fid: f.fid, Newfid: nf}); err != nil {
		return Fid{}, err
	}
	return Fid{cl: f.cl, fid: nf, qid: f.qid}, nil
}

// Walk moves the fid one level down the hierarchy (Twalk).
func (f *Fid) Walk(name string) error {
	r, err := f.cl.RPC(&Fcall{Type: Twalk, Fid: f.fid, Name: name})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// CloneWalk clones the fid and walks the clone in one RPC (Tclwalk).
func (f *Fid) CloneWalk(name string) (Fid, error) {
	nf := f.cl.newFid()
	r, err := f.cl.RPC(&Fcall{Type: Tclwalk, Fid: f.fid, Newfid: nf, Name: name})
	if err != nil {
		return Fid{}, err
	}
	return Fid{cl: f.cl, fid: nf, qid: r.Qid}, nil
}

// Open prepares the fid for reads and writes (Topen).
func (f *Fid) Open(mode int) error {
	r, err := f.cl.RPC(&Fcall{Type: Topen, Fid: f.fid, Mode: uint8(mode)})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// Create creates name in the directory the fid refers to and opens it
// (Tcreate); the fid moves to the new file.
func (f *Fid) Create(name string, perm uint32, mode int) error {
	r, err := f.cl.RPC(&Fcall{Type: Tcreate, Fid: f.fid, Name: name, Perm: perm, Mode: uint8(mode)})
	if err != nil {
		return err
	}
	f.qid = r.Qid
	return nil
}

// Read reads up to len(p) bytes at offset off, one Tread per MaxFData
// fragment, a short reply ending the read. Reads of at most MaxFData
// map to exactly one RPC, which is how message delimiters survive the
// mount driver. Each fragment waits for the reply to the one before —
// the serial driver — except on a plain-file fid of a file-tree client,
// where up to Window Treads ride at once, reassembled strictly in
// offset order, a short reply truncating the result there and the
// speculative fragments beyond it flushed. The fan-out is never used
// on directories, append/exclusive files, or device-tree clients,
// because a speculative Tread past a boundary is executed by the server
// before the flush can reach it — on a delimited or stream device that
// read consumes data.
func (f *Fid) Read(p []byte, off int64) (int, error) {
	return f.transfer(Tread, p, off)
}

// Write writes p at offset off, one Twrite per MaxFData fragment,
// stopping at the first error or short Rwrite. On a plain-file fid of
// a file-tree client up to Window Twrites ride at once, acknowledged
// strictly in offset order, a short Rwrite count truncating the total.
// That fan-out relaxes the serial contract on failure: the fragments
// are independent RPCs, so when one errors or comes up short, fragments
// beyond the returned count may already have been applied by the
// server. A caller that cannot tolerate that — resuming a stream at the
// returned offset, say — must not mount that tree as a file tree.
func (f *Fid) Write(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		_, err := f.cl.RPC(&Fcall{Type: Twrite, Fid: f.fid, Offset: off})
		return 0, err
	}
	return f.transfer(Twrite, p, off)
}

// transfer moves p through one window of typ (Tread or Twrite)
// fragments, at most depth in flight and reaped in offset order. At
// depth 1 it is the serial driver: fragment n+1 is issued only after
// the reply to fragment n. After an issue error the fragments already
// issued are still reaped in order before the error is returned.
func (f *Fid) transfer(typ uint8, p []byte, off int64) (int, error) {
	depth := 1
	if f.cl.cfg.FileTree && f.qid.Type == vfs.QTFILE {
		depth = f.cl.cfg.Window
	}
	w := Window{f: f}
	defer w.Cancel()
	var issueErr error
	done, issued := 0, 0
	for {
		for issueErr == nil && issued < len(p) && w.n < depth {
			n := min(len(p)-issued, MaxFData)
			if typ == Tread {
				issueErr = w.Read(off+int64(issued), n)
			} else {
				issueErr = w.Write(p[issued:issued+n], off+int64(issued))
			}
			if issueErr == nil {
				issued += n
			}
		}
		if w.n == 0 {
			return done, issueErr
		}
		data, n, short, err := w.Reap()
		copy(p[done:], data)
		done += n
		if err != nil || short {
			// EOF, a message boundary or a failure: the fragments
			// beyond it were speculative; the deferred Cancel flushes
			// them so their data (if any) is discarded, as if they
			// were never issued.
			return done, err
		}
	}
}

// Window is a fid's FIFO of fragment RPCs in flight — the one sliding
// window of the mount path. Fid.Read and Fid.Write run each transfer
// through one; the mount driver keeps one per open file for readahead
// and one for write-behind. Fragments are issued with Read or Write,
// reaped oldest first with Reap, and whatever is left is abandoned in
// one batch of Tflushes with Cancel. Its owner ends every window with
// Cancel, which also lets go of the last reaped fragment's bytes. A
// Window is not safe for concurrent use.
type Window struct {
	f          *Fid
	head, tail *Pending
	n          int
	reaped     *block.Block // the wire buffer behind Reap's last data
}

// NewWindow returns an empty window of fragment RPCs on f.
func (f *Fid) NewWindow() Window { return Window{f: f} }

// Len reports the number of fragments in flight.
func (w *Window) Len() int { return w.n }

// Read issues a Tread of count bytes (at most MaxFData) at off. The
// request is on the wire when Read returns.
func (w *Window) Read(off int64, count int) error {
	return w.issue(&Fcall{Type: Tread, Fid: w.f.fid, Offset: off, Count: uint16(count)}, count)
}

// Write issues a Twrite of p (at most MaxFData bytes) at off. p is
// copied into the wire buffer before Write returns.
func (w *Window) Write(p []byte, off int64) error {
	return w.issue(&Fcall{Type: Twrite, Fid: w.f.fid, Offset: off, Data: p}, len(p))
}

func (w *Window) issue(t *Fcall, asked int) error {
	p, err := w.f.cl.RPCAsync(t)
	if err != nil {
		return err
	}
	p.asked = uint16(asked)
	if w.tail == nil {
		w.head = p
	} else {
		w.tail.next = p
	}
	w.tail = p
	w.n++
	return nil
}

// Reap waits for the reply to the oldest fragment and removes it from
// the window, which must not be empty. It returns the bytes a Tread
// brought back, the count moved (len(data), or the Rwrite's count),
// and whether that fell short of what the fragment asked for. The
// bytes are the reply's wire buffer: they live until the window's next
// Reap or Cancel.
func (w *Window) Reap() (data []byte, n int, short bool, err error) {
	p := w.head
	w.head = p.next
	if w.head == nil {
		w.tail = nil
	}
	w.n--
	w.release()
	asked := int(p.asked)
	r, err := p.Wait()
	if err != nil {
		return nil, 0, false, err
	}
	w.reaped = r.blk
	n = len(r.Data)
	if r.Type == Rwrite {
		n = int(r.Count)
	}
	return r.Data, n, n < asked, nil
}

// Cancel abandons every fragment in flight — all the Tflushes go out
// before the first Rflush is awaited — and leaves the window empty,
// the last reaped fragment's bytes freed. On an empty window it sends
// nothing.
func (w *Window) Cancel() {
	w.release()
	w.f.cl.flushMany(w.head)
	w.head, w.tail, w.n = nil, nil, 0
}

// release frees the wire buffer behind the last reaped fragment.
func (w *Window) release() {
	if w.reaped != nil {
		w.reaped.Free()
		w.reaped = nil
	}
}

// Stat returns the file's directory entry (Tstat).
func (f *Fid) Stat() (vfs.Dir, error) {
	r, err := f.cl.RPC(&Fcall{Type: Tstat, Fid: f.fid})
	if err != nil {
		return vfs.Dir{}, err
	}
	return r.Stat, nil
}

// Wstat rewrites the file's attributes (Twstat).
func (f *Fid) Wstat(d vfs.Dir) error {
	_, err := f.cl.RPC(&Fcall{Type: Twstat, Fid: f.fid, Stat: d})
	return err
}

// Clunk discards the fid without affecting the file (Tclunk).
func (f *Fid) Clunk() error {
	_, err := f.cl.RPC(&Fcall{Type: Tclunk, Fid: f.fid})
	return err
}

// Remove removes the file and clunks the fid (Tremove).
func (f *Fid) Remove() error {
	_, err := f.cl.RPC(&Fcall{Type: Tremove, Fid: f.fid})
	return err
}
