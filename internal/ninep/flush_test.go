package ninep

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/vfs"
)

// blockingFS serves one file whose reads block until released — the
// shape of a listen file or an idle network data file, the reason the
// paper says exportfs must be multithreaded (§6.1). reads counts how
// many Reads actually reach the handle.
type blockingFS struct {
	release chan struct{}
	reads   atomic.Int64
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
	<-h.f.release
	return copy(p, "released"), nil
}
func (h blockHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h blockHandle) Close() error                           { return nil }

// TestFlushAbandonsBlockedRead: a client starts a read that blocks in
// the server, flushes it, gets Rflush immediately, and — per the 9P
// contract — never receives the abandoned read's response, while the
// connection keeps working.
func TestFlushAbandonsBlockedRead(t *testing.T) {
	fs := &blockingFS{release: make(chan struct{})}
	a, b := NewPipe()
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") })
	cl, err := NewClient(a)
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
	// the tag to flush. The response channel stays registered so we
	// can assert no response ever arrives.
	readDone := make(chan *Fcall, 1)
	const readTag = 77
	cl.mu.Lock()
	cl.tags[readTag] = vclock.NewMailbox[*Fcall](nil, 1)
	respCh := cl.tags[readTag]
	cl.mu.Unlock()
	msg, _ := MarshalFcall(&Fcall{Type: Tread, Tag: readTag, Fid: 2, Count: 64})
	if err := cl.conn.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	go func() {
		if r, ok := respCh.Recv(); ok {
			readDone <- r
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
	close(fs.release)
	select {
	case resp := <-readDone:
		t.Fatalf("flushed read still answered: %+v", resp)
	case <-time.After(100 * time.Millisecond):
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
	fs := &blockingFS{release: make(chan struct{})}
	a, b := NewPipe()
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") })
	cl, err := NewClient(a)
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
	cl.mu.Lock()
	cl.tags[tag] = vclock.NewMailbox[*Fcall](nil, 1)
	cl.mu.Unlock()
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
	reuse := vclock.NewMailbox[*Fcall](nil, 1)
	cl.mu.Lock()
	cl.tags[tag] = reuse
	cl.mu.Unlock()
	msg, _ = MarshalFcall(&Fcall{Type: Tstat, Tag: tag, Fid: 1})
	if err := cl.conn.WriteMsg(msg); err != nil {
		t.Fatal(err)
	}
	reuseDone := make(chan *Fcall, 1)
	go func() {
		if r, ok := reuse.Recv(); ok {
			reuseDone <- r
		}
	}()
	select {
	case r := <-reuseDone:
		if r.Type != Rstat {
			t.Fatalf("recycled tag answered with %s, want Rstat", TypeName(r.Type))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request on recycled tag never answered (stale flush state swallowed it)")
	}

	// Release the parked read: its stale reply must stay suppressed
	// even though the tag has moved on.
	stale := vclock.NewMailbox[*Fcall](nil, 1)
	cl.mu.Lock()
	cl.tags[tag] = stale
	cl.mu.Unlock()
	close(fs.release)
	time.Sleep(100 * time.Millisecond)
	if r, ok := stale.TryRecv(); ok {
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
	fs := &blockingFS{release: make(chan struct{})}
	a, b := NewPipe()
	go Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Attach("") })
	cl, err := NewClient(a)
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

	// First read parks in the handle; second queues behind it on the
	// fid's read-ticket queue.
	p1, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: 0, Count: 64})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: 64, Count: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Flush the queued read. Tflush is answered in the server's main
	// loop, so the mark lands before the queue can advance.
	p2.Flush()
	// Release the parked read; the flushed one's turn comes and must
	// be skipped.
	close(fs.release)
	if _, err := p1.Wait(); err != nil {
		t.Fatalf("unflushed read: %v", err)
	}
	// The skipped request produces no reply to wait on, so watch the
	// handle over a grace window: the queue advanced when read #1
	// answered, and the flushed read must never touch the device.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := fs.reads.Load(); got != 1 {
			t.Fatalf("handle saw %d reads, want 1: a flushed queued read touched the device", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.Clunk()
}
