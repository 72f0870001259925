package ninep

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// An Rread or Twrite decoded off the wire keeps its data in the wire
// buffer it arrived in, as a block with exactly one owner. The tests
// below drive each place that owner lets go of it and check the block
// books come back to where they started; the package's leak gate
// (TestMain) would catch the same leak at exit, these name the case.

// blocksBack runs scenario and fails t unless every block it made has
// been freed by the time it returns (goroutines and all: scenarios run
// a whole virtual clock).
func blocksBack(t *testing.T, scenario func()) {
	t.Helper()
	before := block.Snapshot().InFlight
	scenario()
	if d := block.Snapshot().InFlight - before; d != 0 {
		msg := ""
		if sites := block.Outstanding(); len(sites) > 0 {
			msg = ", allocated at:\n\t" + strings.Join(sites, "\n\t")
		}
		t.Errorf("%d block(s) never freed%s", d, msg)
	}
}

// lateConn holds every Rread the server sends until the client has put
// a Tflush on the wire: each reply reaches demux after its tag was
// abandoned and before the Rflush — a reply racing its Tflush, every
// time. late counts the replies it held.
type lateConn struct {
	MsgConn
	mu      sync.Mutex
	flushed vclock.Cond
	sent    bool
	closed  bool
	late    int
}

func newLateConn(ck vclock.Clock, c MsgConn) MsgConn {
	l := &lateConn{MsgConn: c}
	l.flushed.Init(ck, &l.mu)
	return l
}

func (l *lateConn) WriteMsg(p []byte) error {
	if len(p) > 4 && p[4] == Tflush {
		l.mu.Lock()
		l.sent = true
		l.flushed.Broadcast()
		l.mu.Unlock()
	}
	return l.MsgConn.WriteMsg(p)
}

func (l *lateConn) ReadMsg() ([]byte, error) {
	m, err := l.MsgConn.ReadMsg()
	if err == nil && len(m) > 4 && m[4] == Rread {
		l.mu.Lock()
		for !l.sent && !l.closed {
			l.flushed.Wait()
		}
		l.late++
		l.mu.Unlock()
	}
	return m, err
}

func (l *lateConn) Close() error {
	l.mu.Lock()
	l.closed = true
	l.flushed.Broadcast()
	l.mu.Unlock()
	return l.MsgConn.Close()
}

// TestRacedReplyFreedByDemux: a window is cancelled while its Rreads
// are on their way; every one lands after its Tflush, and demux, which
// drops it, frees it.
func TestRacedReplyFreedByDemux(t *testing.T) {
	var late *lateConn
	wrap := func(ck vclock.Clock, c MsgConn) MsgConn {
		m := newLateConn(ck, c)
		late = m.(*lateConn)
		return m
	}
	blocksBack(t, func() {
		onCountingServer(t, ClientConfig{FileTree: true}, wrap, func(v *vclock.Virtual, cl *Client, cc *countingConn, fs *ramfs.FS) {
			fs.WriteFile("f", pattern(3*MaxFData), 0664)
			f := openFile(t, cl, "f", vfs.OREAD)
			if f == nil {
				return
			}
			w := f.NewWindow()
			for i := range 3 {
				if err := w.Read(int64(i)*MaxFData, MaxFData); err != nil {
					t.Error(err)
					return
				}
			}
			v.Sleep(time.Millisecond) // the server answers all three
			w.Cancel()
			if got := cc.count(Tflush); got != 3 {
				t.Errorf("Cancel sent %d Tflushes, want 3", got)
			}
			late.mu.Lock()
			n := late.late
			late.mu.Unlock()
			if n != 3 {
				t.Errorf("%d replies raced their Tflush, want 3", n)
			}
		})
	})
}

// TestCancelFreesLandedReplies: a window whose replies have all landed
// is cancelled unreaped; flushMany sends no Tflush and frees them.
func TestCancelFreesLandedReplies(t *testing.T) {
	blocksBack(t, func() {
		onCountingServer(t, ClientConfig{FileTree: true}, nil, func(v *vclock.Virtual, cl *Client, cc *countingConn, fs *ramfs.FS) {
			fs.WriteFile("f", pattern(3*MaxFData), 0664)
			f := openFile(t, cl, "f", vfs.OREAD)
			if f == nil {
				return
			}
			w := f.NewWindow()
			for i := range 3 {
				if err := w.Read(int64(i)*MaxFData, MaxFData); err != nil {
					t.Error(err)
					return
				}
			}
			v.Sleep(time.Millisecond) // the server answers all three
			if data, _, _, err := w.Reap(); err != nil || len(data) != MaxFData {
				t.Errorf("reap: %d bytes, %v", len(data), err)
			}
			w.Cancel()
			if got := cc.count(Tflush); got != 0 {
				t.Errorf("Cancel of landed replies sent %d Tflushes, want 0", got)
			}
		})
	})
}

// TestDeadClientRepliesFreedByCancel: the client dies while its window
// holds replies that landed; they can still be reaped, and the window's
// Cancel frees the rest.
func TestDeadClientRepliesFreedByCancel(t *testing.T) {
	blocksBack(t, func() {
		onCountingServer(t, ClientConfig{FileTree: true}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn, fs *ramfs.FS) {
			fs.WriteFile("f", pattern(3*MaxFData), 0664)
			f := openFile(t, cl, "f", vfs.OREAD)
			if f == nil {
				return
			}
			w := f.NewWindow()
			for i := range 3 {
				if err := w.Read(int64(i)*MaxFData, MaxFData); err != nil {
					t.Error(err)
					return
				}
			}
			v.Sleep(time.Millisecond)
			cl.Close()
			if data, _, _, err := w.Reap(); err != nil || len(data) != MaxFData {
				t.Errorf("reap after the client died: %d bytes, %v", len(data), err)
			}
			w.Cancel()
		})
	})
}

// TestFlushedTwriteFreed: a Twrite flushed while it waits its turn
// never reaches the handle, and the server frees its wire buffer; so
// does a Twrite that fails.
func TestFlushedTwriteFreed(t *testing.T) {
	var fs *blockingFS
	root := func(ck vclock.Clock) vfs.Node {
		fs = newBlockingFS(ck)
		node, _ := fs.Attach("")
		return node
	}
	blocksBack(t, func() {
		onTapped(t, root, ClientConfig{}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn) {
			root, err := cl.Attach("u", "")
			if err != nil {
				t.Error(err)
				return
			}
			if err := root.Open(vfs.OWRITE); err != nil {
				t.Error(err)
				return
			}
			data := pattern(100)
			p1, err := cl.RPCAsync(&Fcall{Type: Twrite, Fid: root.fid, Data: data})
			if err != nil {
				t.Error(err)
				return
			}
			p2, err := cl.RPCAsync(&Fcall{Type: Twrite, Fid: root.fid, Offset: 100, Data: data})
			if err != nil {
				t.Error(err)
				return
			}
			p2.Flush()
			fs.release.Close()
			if _, err := p1.Wait(); err != nil {
				t.Errorf("unflushed write: %v", err)
			}
			if _, err := cl.RPC(&Fcall{Type: Twrite, Fid: 999, Data: data}); err == nil {
				t.Error("a write to an unknown fid succeeded")
			}
			v.Sleep(time.Millisecond) // let the flushed write's turn pass
			if got := fs.writes.Load(); got != 1 {
				t.Errorf("handle saw %d writes, want 1", got)
			}
		})
	})
}

// TestQueuedTwritesFreedAtTeardown: the connection dies with Twrites
// queued behind a parked one; teardown marks them flushed, and once the
// parked write returns every queued request drains through the server,
// wire buffer freed, without touching the handle.
func TestQueuedTwritesFreedAtTeardown(t *testing.T) {
	var fs *blockingFS
	root := func(ck vclock.Clock) vfs.Node {
		fs = newBlockingFS(ck)
		node, _ := fs.Attach("")
		return node
	}
	blocksBack(t, func() {
		onTapped(t, root, ClientConfig{}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn) {
			root, err := cl.Attach("u", "")
			if err != nil {
				t.Error(err)
				return
			}
			if err := root.Open(vfs.OWRITE); err != nil {
				t.Error(err)
				return
			}
			for i := range 4 {
				if _, err := cl.RPCAsync(&Fcall{Type: Twrite, Fid: root.fid, Offset: int64(i) * 100, Data: pattern(100)}); err != nil {
					t.Error(err)
					return
				}
			}
			v.Sleep(time.Millisecond) // the first write parks, three queue
			cl.Close()
			v.Sleep(time.Millisecond) // the server tears the connection down
			fs.release.Close()
			v.Sleep(time.Millisecond)
			if got := fs.writes.Load(); got != 1 {
				t.Errorf("handle saw %d writes, want 1", got)
			}
		})
	})
}
