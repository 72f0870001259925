package ninep

import (
	"errors"
	"fmt"
	"sync"
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
	// Clock drives the client's goroutines and latency measurements;
	// nil means the real clock.
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

	mu      sync.Mutex
	tagFree vclock.Cond // signaled whenever a tag is released
	// tags holds one entry per outstanding tag. A non-nil mailbox
	// is a process waiting for the reply; a nil value is a tag
	// abandoned by Tflush but still reserved until the flush
	// completes, so the server's late reply (if any) is dropped on
	// the floor instead of reaching a recycled tag's new owner.
	tags    map[uint16]*vclock.Mailbox[*Fcall]
	nextTag uint16
	nextFid uint32
	err     error

	// Mount-driver observability: RPC count and latency, Tflush count,
	// and the in-flight window high-water mark. The mnt device renders
	// these into /net/mnt/stats.
	RPCs     obs.Counter
	Flushes  obs.Counter
	RPCHist  obs.Hist
	WindowHW obs.Watermark
	stats    *obs.Group
}

// NewClient starts a 9P client on conn and performs the session
// handshake. The caller then Attaches to obtain a root fid.
func NewClient(conn MsgConn) (*Client, error) {
	return NewClientConfig(conn, ClientConfig{})
}

// NewClientConfig is NewClient with an explicit pipelining
// configuration.
func NewClientConfig(conn MsgConn, cfg ClientConfig) (*Client, error) {
	cl := &Client{
		conn: conn,
		cfg:  cfg.withDefaults(),
		ck:   vclock.Or(cfg.Clock),
		tags: make(map[uint16]*vclock.Mailbox[*Fcall]),
	}
	cl.wmu.Init(cl.ck)
	cl.tagFree.Init(cl.ck, &cl.mu)
	cl.stats = new(obs.Group).
		AddCounter("rpcs", &cl.RPCs).
		AddCounter("flushes", &cl.Flushes).
		Add("window-max", cl.WindowHW.Load).
		AddHist("rpc", &cl.RPCHist)
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

// StatsGroup exposes the client's counters and RPC latency histogram.
func (cl *Client) StatsGroup() *obs.Group { return cl.stats }

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
		f, err := UnmarshalFcall(msg)
		// UnmarshalFcall copies everything it keeps, so the wire
		// buffer goes back to the pool either way.
		block.PutBytes(msg)
		if err != nil {
			cl.fail(err)
			return
		}
		cl.mu.Lock()
		ch, ok := cl.tags[f.Tag]
		if ok {
			delete(cl.tags, f.Tag)
			cl.tagFree.Broadcast()
		}
		cl.mu.Unlock()
		// ch == nil: the tag was flushed; the reply raced the
		// Tflush and is discarded. TrySend cannot find the
		// one-slot mailbox full — each tag gets one reply — so a
		// refusal only means the client already failed.
		if ch != nil {
			ch.TrySend(f)
		}
	}
}

func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	pending := cl.tags
	cl.tags = make(map[uint16]*vclock.Mailbox[*Fcall])
	cl.tagFree.Broadcast()
	cl.mu.Unlock()
	for _, ch := range pending {
		if ch != nil {
			ch.Close()
		}
	}
}

// Close tears down the connection; outstanding RPCs fail.
func (cl *Client) Close() error {
	err := cl.conn.Close()
	cl.fail(ErrConnClosed)
	return err
}

// allocTag reserves a free tag for ch, blocking while the in-flight
// window is full or the tag space is exhausted. Tflush is exempt from
// the in-flight cap (flushExempt): a flush must be able to proceed
// even when the cap is saturated by the very requests it abandons.
func (cl *Client) allocTag(ch *vclock.Mailbox[*Fcall], flushExempt bool) (uint16, error) {
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
		return 0, cl.err
	}
	// len(tags) < maxTags here, so a free tag exists and the scan
	// terminates.
	for {
		cl.nextTag++
		if cl.nextTag == NoTag {
			cl.nextTag = 1
		}
		if _, inUse := cl.tags[cl.nextTag]; !inUse {
			cl.tags[cl.nextTag] = ch
			cl.WindowHW.Note(int64(len(cl.tags)))
			return cl.nextTag, nil
		}
	}
}

// freeTag releases a tag reserved by allocTag but never answered (a
// marshal or transport error, or a completed flush).
func (cl *Client) freeTag(tag uint16) {
	cl.mu.Lock()
	delete(cl.tags, tag)
	cl.tagFree.Broadcast()
	cl.mu.Unlock()
}

// Pending is an RPC in flight: the asynchronous half of the mount
// driver. Exactly one of Wait or Flush must be called, once.
type Pending struct {
	cl    *Client
	tag   uint16
	req   uint8
	asked uint16 // bytes a Window's fragment asked to move
	ch    *vclock.Mailbox[*Fcall]
	start time.Time

	// A Window chains its fragments through the Pendings themselves,
	// so queueing one allocates nothing.
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
	ch := vclock.NewMailbox[*Fcall](cl.ck, 1)
	tag, err := cl.allocTag(ch, flushExempt)
	if err != nil {
		return nil, err
	}
	t.Tag = tag
	msg, err := MarshalFcall(t)
	if err != nil {
		cl.freeTag(tag)
		return nil, err
	}
	cl.wmu.Lock()
	err = cl.conn.WriteMsg(msg)
	cl.wmu.Unlock()
	if err != nil {
		cl.freeTag(tag)
		return nil, err
	}
	cl.RPCs.Inc()
	return &Pending{cl: cl, tag: tag, req: t.Type, ch: ch, start: cl.ck.Now()}, nil
}

// Wait blocks for the reply. On an Rerror response it returns the
// error string as an error.
func (p *Pending) Wait() (*Fcall, error) {
	r, ok := p.ch.Recv()
	if !ok {
		p.cl.mu.Lock()
		err := p.cl.err
		p.cl.mu.Unlock()
		if err == nil {
			err = ErrConnClosed
		}
		return nil, err
	}
	p.cl.RPCHist.Observe(p.cl.ck.Since(p.start))
	if r.Type == Rerror {
		return nil, errors.New(r.Ename)
	}
	if r.Type != p.req+1 {
		return nil, fmt.Errorf("9P: got %s in response to %s", TypeName(r.Type), TypeName(p.req))
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
	if ch, ok := p.cl.tags[p.tag]; ok && ch == p.ch {
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
// tag in the 16-bit space.
func (cl *Client) flushMany(head *Pending) {
	for p := head; p != nil; p = p.next {
		if !p.abandon() {
			continue
		}
		cl.Flushes.Inc()
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
}

// release frees the tag of an abandoned pending once its flush has
// completed, if demux hasn't already consumed a raced reply.
func (p *Pending) release() {
	p.cl.mu.Lock()
	if ch, ok := p.cl.tags[p.tag]; ok && ch == nil {
		delete(p.cl.tags, p.tag)
		p.cl.tagFree.Broadcast()
	}
	p.cl.mu.Unlock()
}

// RPC performs one request/response exchange. On an Rerror response it
// returns the error string as an error.
func (cl *Client) RPC(t *Fcall) (*Fcall, error) {
	p, err := cl.RPCAsync(t)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

func (cl *Client) newFid() uint32 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.nextFid++
	return cl.nextFid
}

// Fid is a remote file handle: the client end of a server fid.
type Fid struct {
	cl  *Client
	fid uint32
	qid vfs.Qid
}

// Attach authenticates uname to the server and returns a fid for the
// root of the tree named by aname.
func (cl *Client) Attach(uname, aname string) (*Fid, error) {
	fid := cl.newFid()
	r, err := cl.RPC(&Fcall{Type: Tattach, Fid: fid, Uname: uname, Aname: aname})
	if err != nil {
		return nil, err
	}
	return &Fid{cl: cl, fid: fid, qid: r.Qid}, nil
}

// Client returns the client the fid lives on.
func (f *Fid) Client() *Client { return f.cl }

// Qid returns the qid most recently reported for the fid.
func (f *Fid) Qid() vfs.Qid { return f.qid }

// Clone duplicates the fid (Tclone), like dup(2) on a channel.
func (f *Fid) Clone() (*Fid, error) {
	nf := f.cl.newFid()
	if _, err := f.cl.RPC(&Fcall{Type: Tclone, Fid: f.fid, Newfid: nf}); err != nil {
		return nil, err
	}
	return &Fid{cl: f.cl, fid: nf, qid: f.qid}, nil
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
func (f *Fid) CloneWalk(name string) (*Fid, error) {
	nf := f.cl.newFid()
	r, err := f.cl.RPC(&Fcall{Type: Tclwalk, Fid: f.fid, Newfid: nf, Name: name})
	if err != nil {
		return nil, err
	}
	return &Fid{cl: f.cl, fid: nf, qid: r.Qid}, nil
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
			// beyond it were speculative; flush them so their data
			// (if any) is discarded, as if they were never issued.
			w.Cancel()
			return done, err
		}
	}
}

// Window is a fid's FIFO of fragment RPCs in flight — the one sliding
// window of the mount path. Fid.Read and Fid.Write run each transfer
// through one; the mount driver keeps one per open file for readahead
// and one for write-behind. Fragments are issued with Read or Write,
// reaped oldest first with Reap, and whatever is left is abandoned in
// one batch of Tflushes with Cancel. A Window is not safe for
// concurrent use.
type Window struct {
	f          *Fid
	head, tail *Pending
	n          int
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
// and whether that fell short of what the fragment asked for.
func (w *Window) Reap() (data []byte, n int, short bool, err error) {
	p := w.head
	w.head = p.next
	if w.head == nil {
		w.tail = nil
	}
	w.n--
	r, err := p.Wait()
	if err != nil {
		return nil, 0, false, err
	}
	n = len(r.Data)
	if r.Type == Rwrite {
		n = int(r.Count)
	}
	return r.Data, n, n < int(p.asked), nil
}

// Cancel abandons every fragment in flight — all the Tflushes go out
// before the first Rflush is awaited — and leaves the window empty.
// On an empty window it sends nothing.
func (w *Window) Cancel() {
	w.f.cl.flushMany(w.head)
	w.head, w.tail, w.n = nil, nil, 0
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
