package ninep

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/vfs"
)

// blockingFS serves one file whose reads and writes block until
// released — the shape of a listen file or an idle network data file,
// the reason the paper says exportfs must be multithreaded (§6.1).
// reads and writes count how many actually reach the handle.
type blockingFS struct {
	release *vclock.Mailbox[struct{}] // closed to release
	reads   atomic.Int64
	writes  atomic.Int64
}

func newBlockingFS(ck vclock.Clock) *blockingFS {
	return &blockingFS{release: vclock.NewMailbox[struct{}](ck, 0)}
}

func (f *blockingFS) Name() string { return "blocking" }
func (f *blockingFS) Attach(spec string) (vfs.Node, error) {
	return blockNode{f: f}, nil
}

type blockNode struct{ f *blockingFS }

func (n blockNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "block", Mode: 0666, Qid: vfs.Qid{Path: 1}}, nil
}
func (n blockNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n blockNode) Open(mode int) (vfs.Handle, error)  { return blockHandle{f: n.f}, nil }

type blockHandle struct{ f *blockingFS }

func (h blockHandle) Read(p []byte, off int64) (int, error) {
	h.f.reads.Add(1)
	h.f.release.Recv()
	return copy(p, "released"), nil
}
func (h blockHandle) Write(p []byte, off int64) (int, error) {
	h.f.writes.Add(1)
	h.f.release.Recv()
	return len(p), nil
}
func (h blockHandle) Close() error { return nil }

// The two tests below run on the real clock by name: their point is a
// flush racing the multithreaded server's reply on other host threads,
// which is what the race detector needs to see.

// plant reserves tag on cl for a request the test writes by hand, the
// way sendAsync reserves one, so demux delivers the tag's reply to the
// returned Pending.
func plant(cl *Client, tag uint16, req uint8) *Pending {
	p := &Pending{cl: cl, tag: tag, req: req}
	p.wake.Init(cl.ck, &cl.mu)
	cl.mu.Lock()
	cl.tags[tag] = p
	cl.mu.Unlock()
	return p
}

// await blocks until p's reply has arrived, or returns the error the
// client died of. Unlike Wait it leaves p to the test.
func (p *Pending) await() error {
	p.cl.mu.Lock()
	defer p.cl.mu.Unlock()
	for !p.done && p.cl.err == nil {
		p.wake.Wait()
	}
	if p.done {
		return nil
	}
	return p.cl.err
}

// replied reports, without blocking, whether p's reply has arrived.
func (p *Pending) replied() (*Fcall, bool) {
	p.cl.mu.Lock()
	defer p.cl.mu.Unlock()
	return &p.r, p.done
}

// TestFlushAbandonsBlockedRead: a client starts a read that blocks in
// the server, flushes it, gets Rflush immediately, and — per the 9P
// contract — never receives the abandoned read's response, while the
// connection keeps working.
func TestFlushAbandonsBlockedRead(t *testing.T) {
	fs := newBlockingFS(vclock.Real)
	a, b := NewPipe(vclock.Real)
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") }, vclock.Real)
	cl, err := NewClient(a, ClientConfig{Clock: vclock.Real})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}

	// Issue the blocking read with a raw, hand-tagged RPC so we know
	// the tag to flush. Its Pending stays registered so we can assert
	// no response ever arrives.
	readDone := make(chan *Fcall, 1)
	const readTag = 77
	read := plant(cl, readTag, Tread)
	msg, _ := MarshalFcall(&Fcall{Type: Tread, Tag: readTag, Fid: 2, Count: 64})
	if err := cl.conn.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	go func() {
		if read.await() == nil {
			readDone <- &read.r
		}
	}()

	// While it blocks, other traffic flows (multithreaded server).
	if _, err := root.Stat(); err != nil {
		t.Fatalf("stat during blocked read: %v", err)
	}

	// Flush the read.
	r, err := cl.RPC(&Fcall{Type: Tflush, Oldtag: readTag})
	if err != nil || r.Type != Rflush {
		t.Fatalf("flush = %+v, %v", r, err)
	}

	// Release the server-side read; its response must be suppressed.
	fs.release.Close()
	select {
	case resp := <-readDone:
		t.Fatalf("flushed read still answered: %+v", resp)
	case <-time.After(100 * time.Millisecond): //netvet:ignore realtime a grace window on the real clock this test is about
	}

	// The connection is still healthy.
	if _, err := root.Stat(); err != nil {
		t.Fatalf("stat after flush: %v", err)
	}
	f.Clunk()
}

// TestFlushedTagReuse is the wrap-around regression: once Rflush
// arrives the tag is legitimately free, and the client will recycle it
// — in practice after the 16-bit tag space wraps — while the flushed
// request's goroutine may still be parked in the server. The recycled
// tag's new request must be answered normally (the old per-tag flush
// state must not swallow it), and the stale request's reply must never
// surface under the recycled tag.
func TestFlushedTagReuse(t *testing.T) {
	fs := newBlockingFS(vclock.Real)
	a, b := NewPipe(vclock.Real)
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") }, vclock.Real)
	cl, err := NewClient(a, ClientConfig{Clock: vclock.Real})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root, err := cl.Attach("u", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vfs.OREAD); err != nil {
		t.Fatal(err)
	}

	// A hand-tagged read parks in the server...
	const tag = 99
	plant(cl, tag, Tread)
	msg, _ := MarshalFcall(&Fcall{Type: Tread, Tag: tag, Fid: 2, Count: 64})
	if err := cl.conn.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	// ...and is flushed, which per the flush contract frees the tag.
	if r, err := cl.RPC(&Fcall{Type: Tflush, Oldtag: tag}); err != nil || r.Type != Rflush {
		t.Fatalf("flush = %+v, %v", r, err)
	}
	cl.mu.Lock()
	delete(cl.tags, tag)
	cl.mu.Unlock()

	// Recycle the tag for a fresh request while the flushed read is
	// still parked. Its reply must come back — a server that keyed
	// flush state by tag alone would consume the stale mark here and
	// drop it.
	reuse := plant(cl, tag, Tstat)
	msg, _ = MarshalFcall(&Fcall{Type: Tstat, Tag: tag, Fid: 1})
	if err := cl.conn.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	reuseDone := make(chan *Fcall, 1)
	go func() {
		if reuse.await() == nil {
			reuseDone <- &reuse.r
		}
	}()
	select {
	case r := <-reuseDone:
		if r.Type != Rstat {
			t.Fatalf("recycled tag answered with %s, want Rstat", TypeName(r.Type))
		}
	case <-time.After(2 * time.Second): //netvet:ignore realtime a deadline on the real clock this test is about
		t.Fatal("request on recycled tag never answered (stale flush state swallowed it)")
	}

	// Release the parked read: its stale reply must stay suppressed
	// even though the tag has moved on.
	stale := plant(cl, tag, Tread)
	fs.release.Close()
	time.Sleep(100 * time.Millisecond) //netvet:ignore realtime a grace window on the real clock this test is about
	if r, ok := stale.replied(); ok {
		t.Fatalf("stale flushed reply surfaced under recycled tag: %+v", r)
	}
	cl.mu.Lock()
	delete(cl.tags, tag)
	cl.mu.Unlock()
	f.Clunk()
}

// TestFlushedQueuedReadSkipsHandle: a Tread flushed while waiting its
// per-fid ticket turn must never reach the handle — on a delimited or
// stream device the abandoned read would consume data the client never
// sees. The flushed request holds a ticket behind a parked read; when
// the queue advances it must skip the handle entirely.
func TestFlushedQueuedReadSkipsHandle(t *testing.T) {
	var fs *blockingFS
	root := func(ck vclock.Clock) vfs.Node {
		fs = newBlockingFS(ck)
		node, _ := fs.Attach("")
		return node
	}
	onTapped(t, root, ClientConfig{}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn) {
		root, err := cl.Attach("u", "")
		if err != nil {
			t.Error(err)
			return
		}
		f, err := root.Clone()
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}

		// First read parks in the handle; second queues behind it on
		// the fid's read-ticket queue.
		p1, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: 0, Count: 64})
		if err != nil {
			t.Error(err)
			return
		}
		p2, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: 64, Count: 64})
		if err != nil {
			t.Error(err)
			return
		}
		// Flush the queued read. Tflush is answered in the server's
		// main loop, so the mark lands before the queue can advance.
		p2.Flush()
		// Release the parked read; the flushed one's turn comes and
		// must be skipped.
		fs.release.Close()
		r, err := p1.Wait()
		if err != nil {
			t.Errorf("unflushed read: %v", err)
			return
		}
		r.free()
		// The skipped request produces no reply to wait on, so let the
		// queue run out: it advanced when read #1 answered, and the
		// flushed read must never touch the device.
		v.Sleep(200 * time.Millisecond)
		if got := fs.reads.Load(); got != 1 {
			t.Errorf("handle saw %d reads, want 1: a flushed queued read touched the device", got)
		}
		f.Clunk()
	})
}
