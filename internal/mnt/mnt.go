// Package mnt is the mount driver (§2.1): "a kernel resident file
// server called the mount driver converts the procedural version of 9P
// into RPCs." Given a transport to a 9P server — a pipe to a local
// user-level server, or a network connection to a remote machine — it
// yields a vfs.Node that can be mounted into a name space; every
// operation on the subtree becomes a 9P message.
//
// A mount is one of two profiles. The zero Config mounts a device
// tree: every Read and Write maps onto the same RPCs, in the same order,
// as one-fragment-at-a-time 9P — what imported device trees need.
// FileConfig mounts a tree of plain files: large transfers fan into a
// sliding window of concurrent RPCs, sequential reads are read ahead
// and sequential writes written behind. All three reorder or speculate
// I/O and all three run on one mechanism, ninep.Window.
package mnt

import (
	"io"
	"runtime"

	"repro/internal/ninep"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Config selects the mount's profile.
//
// The zero value is the device-tree profile, the serial driver — safe
// for any server, including live device trees where a Tread has side
// effects (a listen file, a stream's data file).
type Config struct {
	// Client configures the RPC engine; Client.FileTree selects the
	// file-tree profile. See ninep.ClientConfig.
	Client ninep.ClientConfig
}

// FileConfig is the profile for mounts of plain file trees (a dump
// file system, a source tree): windowed transfers, readahead and
// write-behind.
func FileConfig() Config {
	return Config{Client: ninep.ClientConfig{FileTree: true}}
}

// readahead is how many MaxFData fragments of speculative Tread a
// file-tree handle keeps ahead of a sequential reader, the partly read
// one included. It does not shrink with the client's window, which
// bounds only how many fragments of one request ride at once.
const readahead = 4

// Mount dials a 9P server over conn, authenticates uname, attaches to
// aname, and returns the remote root as a mountable node. Closing the
// returned client tears down the connection and every fid on it. The
// mount is a device tree; pass FileConfig to MountConfig for a plain
// file tree.
func Mount(conn ninep.MsgConn, uname, aname string) (vfs.Node, *ninep.Client, error) {
	return MountConfig(conn, uname, aname, Config{})
}

// MountConfig is Mount with an explicit profile.
func MountConfig(conn ninep.MsgConn, uname, aname string, cfg Config) (vfs.Node, *ninep.Client, error) {
	cl, err := ninep.NewClientConfig(conn, cfg.Client)
	if err != nil {
		return nil, nil, err
	}
	root, err := cl.Attach(uname, aname)
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return newNode(root, cfg.Client.FileTree), cl, nil
}

// node is an unopened remote file; it holds a walked fid. Fids are
// clunked by a finalizer when the node is collected, mirroring how the
// kernel clunks a channel on the last close of its references.
type node struct {
	fid  *ninep.Fid
	file bool // file-tree profile
}

var (
	_ vfs.Node    = (*node)(nil)
	_ vfs.Creator = (*node)(nil)
	_ vfs.Remover = (*node)(nil)
	_ vfs.Wstater = (*node)(nil)
)

func newNode(fid *ninep.Fid, file bool) *node {
	n := &node{fid: fid, file: file}
	if fid.Client().Clock().Virtual() {
		// Finalizers run on GC goroutines the virtual scheduler has
		// no hold on; under a simulated clock the client dies with
		// its world, so stray fids need no clunk.
		return n
	}
	runtime.SetFinalizer(n, func(n *node) {
		// Once the client is closed or failed there is no
		// connection to clunk over; firing the RPC would only spawn
		// a goroutine to learn that.
		if n.fid.Client().Dead() {
			return
		}
		go n.fid.Clunk()
	})
	return n
}

// Stat implements vfs.Node (Tstat).
func (n *node) Stat() (vfs.Dir, error) { return n.fid.Stat() }

// Walk implements vfs.Node (Tclwalk: clone + walk in one RPC).
func (n *node) Walk(name string) (vfs.Node, error) {
	nf, err := n.fid.CloneWalk(name)
	if err != nil {
		return nil, err
	}
	return newNode(nf, n.file), nil
}

// Open implements vfs.Node. The node's fid stays unopened (so the node
// remains walkable); a clone is opened and owned by the handle.
func (n *node) Open(mode int) (vfs.Handle, error) {
	f, err := n.fid.Clone()
	if err != nil {
		return nil, err
	}
	if err := f.Open(mode); err != nil {
		f.Clunk()
		return nil, err
	}
	return newHandle(f, n.file), nil
}

// Create implements vfs.Creator (Tcreate).
func (n *node) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	f, err := n.fid.Clone()
	if err != nil {
		return nil, nil, err
	}
	if err := f.Create(name, perm, mode); err != nil {
		f.Clunk()
		return nil, nil, err
	}
	// The fid now refers to the created, open file. The handle owns
	// it; the returned node re-walks for a clean unopened fid.
	nn, err := n.fid.CloneWalk(name)
	if err != nil {
		f.Clunk()
		return nil, nil, err
	}
	return newNode(nn, n.file), newHandle(f, n.file), nil
}

// Remove implements vfs.Remover (Tremove). The fid is clunked by the
// server on remove; drop the finalizer's work by marking it done.
func (n *node) Remove() error {
	runtime.SetFinalizer(n, nil)
	return n.fid.Remove()
}

// Wstat implements vfs.Wstater (Twstat).
func (n *node) Wstat(d vfs.Dir) error { return n.fid.Wstat(d) }

// handle is an open remote file.
type handle struct {
	fid  *ninep.Fid
	file bool // file-tree profile: read ahead and write behind

	// mu is held across the handle's RPCs on a file tree, so a second
	// process on the handle parks through the clock.
	mu     vclock.Mutex
	closed bool

	// Readahead. ra holds the Treads in flight — the speculative ones
	// and, during a read, the fragments of the request itself — and
	// rest the unread bytes of the last fragment reaped from it
	// (restShort: that fragment came back short); together they continue
	// the file from seqOff, the offset where the handle's sequential
	// read pattern continues. seqRun counts consecutive sequential
	// reads, and raStop latches after a short reply (EOF) until the
	// pattern resets.
	seqOff    int64
	seqRun    int
	ra        ninep.Window
	rest      []byte
	restShort bool
	raStop    bool

	// Write-behind. buf coalesces sequential writes (always shorter
	// than MaxFData) starting at file offset bufOff; wEnd is where
	// the sequential pattern continues; wb holds the fragments in
	// flight; werr is the first asynchronous error, surfaced on the
	// next operation or Close.
	wrote  bool
	wEnd   int64
	buf    []byte
	bufOff int64
	wb     ninep.Window
	werr   error
}

var _ vfs.Handle = (*handle)(nil)

func newHandle(f *ninep.Fid, file bool) *handle {
	h := &handle{fid: f, file: file, ra: f.NewWindow(), wb: f.NewWindow()}
	h.mu.Init(f.Client().Clock())
	return h
}

// Read implements vfs.Handle (Tread). On a device tree it is a direct
// read; on a file tree sequential reads are served from one window that
// carries what the request still lacks and the readahead behind it.
func (h *handle) Read(p []byte, off int64) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, vfs.ErrClosed
	}
	if !h.file {
		h.mu.Unlock()
		return h.fid.Read(p, off)
	}
	defer h.mu.Unlock()
	// Read-your-writes: drain write-behind first. A deferred write
	// error surfaces here.
	if err := h.barrierLocked(); err != nil {
		return 0, err
	}
	return h.readLocked(p, off)
}

func (h *handle) readLocked(p []byte, off int64) (int, error) {
	if off != h.seqOff {
		// Pattern broken: abandon the prefetch and start over.
		h.cancelRALocked()
		h.raStop = false
		h.seqRun = 0
		RAMisses.Inc()
		n, err := h.fid.Read(p, off)
		h.seqOff = off + int64(n)
		if err == nil && n == len(p) {
			h.seqRun = 1
		}
		return n, err
	}
	// The fragments of this request that are not yet buffered or in
	// flight join the window before the first reap: the caller asked for
	// them, so they are not speculation.
	end := off + int64(len(p))
	h.fillRALocked(off, end)
	total := 0
	short := false
	for total < len(p) && (len(h.rest) > 0 || h.ra.Len() > 0) {
		if len(h.rest) == 0 {
			var err error
			h.rest, _, h.restShort, err = h.ra.Reap()
			if err != nil {
				// The failed fragment is an abandoned readahead
				// even when nothing was in flight behind it.
				RACancels.Inc()
				h.ra.Cancel()
				h.raStop = true
				if total > 0 {
					break
				}
				h.seqRun = 0
				return 0, err
			}
		}
		n := copy(p[total:], h.rest)
		total += n
		h.rest = h.rest[n:]
		if len(h.rest) > 0 {
			break // p is full
		}
		if h.restShort {
			// EOF or boundary, and the reader has reached it:
			// fragments beyond it are invalid.
			h.cancelRALocked()
			h.raStop = true
			short = true
			break
		}
		// Fill the window before waiting on it. When the request ends
		// inside the next fragment the top-up waits for the end of the
		// read, which has seen whether that fragment came back short.
		if pos := off + int64(total); pos+ninep.MaxFData <= end {
			h.fillRALocked(pos, end)
		}
	}
	fromRA := total
	if total < len(p) && !short {
		// Readahead is not armed, or failed to issue.
		n, err := h.fid.Read(p[total:], off+int64(total))
		total += n
		if err != nil {
			h.seqOff = off + int64(total)
			h.seqRun = 0
			return total, err
		}
		// Short is EOF for now; re-probe directly next time.
		h.raStop = total < len(p)
	}
	if fromRA > 0 {
		RAHits.Inc()
	} else {
		RAMisses.Inc()
	}
	h.seqOff = off + int64(total)
	if total == len(p) && total > 0 {
		h.seqRun++
	}
	h.fillRALocked(h.seqOff, h.seqOff)
	return total, nil
}

// fillRALocked, once two sequential reads have armed it, tops the one
// window up for a reader at pos whose request runs to end, starting just
// past everything already buffered or in flight: the readahead to its
// depth, and the request's own fragments as far as the client's window
// lets them ride. Past a short fragment lies EOF, and nothing is issued.
func (h *handle) fillRALocked(pos, end int64) {
	if h.seqRun < 2 || h.raStop || (h.restShort && len(h.rest) > 0) {
		return
	}
	held := h.ra.Len()
	if len(h.rest) > 0 {
		held++
	}
	next := pos + int64(len(h.rest)) + int64(h.ra.Len())*ninep.MaxFData
	for ; held < readahead || (next < end && h.ra.Len() < h.fid.Client().Window()); held++ {
		if err := h.ra.Read(next, ninep.MaxFData); err != nil {
			h.raStop = true
			return
		}
		RAIssued.Inc()
		next += ninep.MaxFData
	}
}

// cancelRALocked abandons the readahead: the Treads in flight are
// flushed (one batch of Tflushes, one round trip) and buffered data
// dropped.
func (h *handle) cancelRALocked() {
	if len(h.rest) > 0 || h.ra.Len() > 0 {
		RACancels.Inc()
	}
	h.rest = nil
	h.ra.Cancel()
}

// Write implements vfs.Handle (Twrite). On a device tree it is a direct
// write; on a file tree sequential writes coalesce into MaxFData
// fragments issued asynchronously, the client's window bounding how
// many ride unacknowledged.
func (h *handle) Write(p []byte, off int64) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, vfs.ErrClosed
	}
	if !h.file {
		h.mu.Unlock()
		return h.fid.Write(p, off)
	}
	defer h.mu.Unlock()
	if h.werr != nil {
		err := h.werr
		h.werr = nil
		return 0, err
	}
	// A write under buffered readahead would let stale prefetched
	// data satisfy a later read; drop it.
	if len(h.rest) > 0 || h.ra.Len() > 0 {
		h.cancelRALocked()
		h.seqRun = 0
	}
	if !h.wrote || len(p) == 0 {
		// The first write on a handle is synchronous: a dialer
		// writes "connect" to a ctl file and expects the side
		// effect before its next step.
		h.wrote = true
		n, err := h.fid.Write(p, off)
		h.wEnd = off + int64(n)
		return n, err
	}
	if off != h.wEnd {
		if err := h.barrierLocked(); err != nil {
			return 0, err
		}
		n, err := h.fid.Write(p, off)
		h.wEnd = off + int64(n)
		return n, err
	}
	// Sequential: coalesce.
	if len(h.buf) == 0 {
		h.bufOff = off
	}
	h.buf = append(h.buf, p...)
	for len(h.buf) >= ninep.MaxFData {
		h.issueWBLocked(h.buf[:ninep.MaxFData])
		h.buf = h.buf[ninep.MaxFData:]
	}
	if len(h.buf) == 0 {
		h.buf = nil
	}
	h.wEnd = off + int64(len(p))
	return len(p), nil
}

// issueWBLocked sends one write-behind fragment at bufOff and advances
// it, first reaping the oldest fragment in flight if the window is
// full. The fragment data is copied into the wire buffer before this
// returns.
func (h *handle) issueWBLocked(data []byte) {
	for h.wb.Len() >= h.fid.Client().Window() {
		h.reapWBLocked()
	}
	off := h.bufOff
	h.bufOff += int64(len(data))
	if h.werr != nil {
		return // don't keep writing past a failure
	}
	if h.werr = h.wb.Write(data, off); h.werr == nil {
		WBIssued.Inc()
	}
}

// reapWBLocked waits for the oldest write-behind fragment and records
// its error, if any.
func (h *handle) reapWBLocked() {
	_, _, short, err := h.wb.Reap()
	if err == nil && short {
		err = io.ErrShortWrite
	}
	if h.werr == nil {
		h.werr = err
	}
}

// barrierLocked drains write-behind: the coalescing buffer is issued,
// every fragment in flight is awaited, and the first deferred error is
// returned (and cleared).
func (h *handle) barrierLocked() error {
	if len(h.buf) > 0 || h.wb.Len() > 0 {
		WBBarriers.Inc()
	}
	if len(h.buf) > 0 {
		h.issueWBLocked(h.buf)
		h.buf = nil
	}
	for h.wb.Len() > 0 {
		h.reapWBLocked()
	}
	err := h.werr
	h.werr = nil
	return err
}

// Close implements vfs.Handle: drain write-behind (surfacing any
// deferred error), abandon readahead via Tflush, and clunk the fid.
// Close is idempotent; a second Close is a no-op, so a racing or
// repeated close can never double-clunk the fid.
func (h *handle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	h.cancelRALocked()
	err := h.barrierLocked()
	if cerr := h.fid.Clunk(); err == nil {
		err = cerr
	}
	return err
}
