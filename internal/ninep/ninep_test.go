package ninep

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onServer runs body on a fresh virtual clock with a client of a 9P
// server that serves a fresh ramfs over a pipe.
func onServer(t *testing.T, body func(v *vclock.Virtual, cl *Client, fs *ramfs.FS)) {
	t.Helper()
	onCountingServer(t, ClientConfig{}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn, fs *ramfs.FS) {
		body(v, cl, fs)
	})
}

func TestSessionAttachWalkReadWrite(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("dir/hello", []byte("hello 9P"), 0664)

		root, err := cl.Attach("glenda", "")
		if err != nil {
			t.Error(err)
			return
		}
		f, err := root.CloneWalk("dir")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Walk("hello"); err != nil {
			t.Error(err)
			return
		}
		if err := f.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		n, err := f.Read(buf, 0)
		if err != nil || string(buf[:n]) != "hello 9P" {
			t.Errorf("read %q, %v", buf[:n], err)
			return
		}
		if err := f.Clunk(); err != nil {
			t.Error(err)
		}
	})
}

func TestCreateWriteRemove(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		root, _ := cl.Attach("glenda", "")
		f, err := root.Clone()
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Create("new", 0664, vfs.OWRITE); err != nil {
			t.Error(err)
			return
		}
		if n, err := f.Write([]byte("payload"), 0); err != nil || n != 7 {
			t.Errorf("write = %d, %v", n, err)
			return
		}
		if b, _ := fs.ReadFile("new"); string(b) != "payload" {
			t.Errorf("server contents %q", b)
		}
		if err := f.Remove(); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.ReadFile("new"); err == nil {
			t.Error("file survived Tremove")
		}
	})
}

func TestStatWstat(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("f", []byte("xyz"), 0664)
		root, _ := cl.Attach("glenda", "")
		f, err := root.CloneWalk("f")
		if err != nil {
			t.Error(err)
			return
		}
		d, err := f.Stat()
		if err != nil || d.Name != "f" || d.Length != 3 {
			t.Errorf("stat %+v, %v", d, err)
			return
		}
		if err := f.Wstat(vfs.Dir{Name: "g", Mode: ^uint32(0)}); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.ReadFile("g"); err != nil {
			t.Error("wstat rename did not take")
		}
		f.Clunk()
	})
}

func TestErrorsCrossTheWire(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, _ *ramfs.FS) {
		root, _ := cl.Attach("glenda", "")
		_, err := root.CloneWalk("missing")
		if err == nil || err.Error() != vfs.ErrNotExist.Error() {
			t.Errorf("walk error = %v, want %v", err, vfs.ErrNotExist)
		}
		if !vfs.SameError(err, vfs.ErrNotExist) {
			t.Error("SameError does not match reconstructed 9P error")
		}
	})
}

func TestCloneIsIndependent(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("a/f", nil, 0664)
		root, _ := cl.Attach("glenda", "")
		c1, _ := root.Clone()
		if err := c1.Walk("a"); err != nil {
			t.Error(err)
			return
		}
		// root is still at /.
		c2, err := root.CloneWalk("a")
		if err != nil {
			t.Errorf("root moved by clone's walk: %v", err)
			return
		}
		c1.Clunk()
		c2.Clunk()
	})
}

func TestOpenFidCannotWalk(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("d/f", nil, 0664)
		root, _ := cl.Attach("glenda", "")
		d, _ := root.CloneWalk("d")
		if err := d.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}
		if err := d.Walk("f"); err == nil {
			t.Error("walk on open fid succeeded")
		}
		d.Clunk()
	})
}

func TestLargeTransferSplitsIntoRPCs(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		big := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
		fs.WriteFile("big", big, 0664)
		root, _ := cl.Attach("glenda", "")
		f, _ := root.CloneWalk("big")
		f.Open(vfs.OREAD)
		got := make([]byte, len(big))
		n, err := f.Read(got, 0)
		if err != nil || n != len(big) {
			t.Errorf("read %d of %d: %v", n, len(big), err)
			return
		}
		if !bytes.Equal(got, big) {
			t.Error("large read corrupted")
		}
		// And a large write back.
		w, _ := root.Clone()
		if err := w.Create("copy", 0664, vfs.OWRITE); err != nil {
			t.Error(err)
			return
		}
		if n, err := w.Write(big, 0); err != nil || n != len(big) {
			t.Errorf("write %d of %d: %v", n, len(big), err)
			return
		}
		if b, _ := fs.ReadFile("copy"); !bytes.Equal(b, big) {
			t.Error("large write corrupted")
		}
		f.Clunk()
		w.Clunk()
	})
}

func TestDirectoryReadOver9P(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("x", nil, 0664)
		fs.WriteFile("y", nil, 0664)
		root, _ := cl.Attach("glenda", "")
		d, _ := root.Clone()
		if err := d.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4*vfs.DirRecLen)
		n, err := d.Read(buf, 0)
		if err != nil || n != 2*vfs.DirRecLen {
			t.Errorf("dir read %d, %v", n, err)
			return
		}
		e0, _ := vfs.UnmarshalDir(buf)
		e1, _ := vfs.UnmarshalDir(buf[vfs.DirRecLen:])
		if e0.Name != "x" || e1.Name != "y" {
			t.Errorf("entries %q %q", e0.Name, e1.Name)
		}
		d.Clunk()
	})
}

func TestConcurrentRPCs(t *testing.T) {
	onServer(t, func(v *vclock.Virtual, cl *Client, fs *ramfs.FS) {
		fs.WriteFile("f", bytes.Repeat([]byte("z"), 1024), 0664)
		root, _ := cl.Attach("glenda", "")
		wg := vclock.NewWaitGroup(v)
		errs := make(chan error, 32)
		for range 32 {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				f, err := root.CloneWalk("f")
				if err != nil {
					errs <- err
					return
				}
				defer f.Clunk()
				if err := f.Open(vfs.OREAD); err != nil {
					errs <- err
					return
				}
				buf := make([]byte, 1024)
				if _, err := f.Read(buf, 0); err != nil {
					errs <- err
				}
			})
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func TestFlushUnblocksNothingButAnswers(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, _ *ramfs.FS) {
		// Flushing a tag that is not in flight must still get Rflush.
		r, err := cl.RPC(&Fcall{Type: Tflush, Oldtag: 12345})
		if err != nil || r.Type != Rflush {
			t.Errorf("flush = %+v, %v", r, err)
		}
	})
}

func TestNopAndAuth(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, _ *ramfs.FS) {
		if _, err := cl.RPC(&Fcall{Type: Tnop}); err != nil {
			t.Errorf("nop: %v", err)
		}
		r, err := cl.RPC(&Fcall{Type: Tauth, Fid: 9, Uname: "glenda", Chal: "c"})
		if err != nil || r.Chal == "" {
			t.Errorf("auth = %+v, %v", r, err)
		}
	})
}

func TestServerSurvivesUnknownFid(t *testing.T) {
	onServer(t, func(_ *vclock.Virtual, cl *Client, _ *ramfs.FS) {
		if _, err := cl.RPC(&Fcall{Type: Tclunk, Fid: 999}); err == nil {
			t.Error("clunk of unknown fid succeeded")
		}
		// The connection still works afterwards.
		if _, err := cl.Attach("glenda", ""); err != nil {
			t.Errorf("attach after error: %v", err)
		}
	})
}

// TestClientCloseFailsPendingRPCs runs on the real clock by name: the
// server's teardown marks the request still parked in its handler
// flushed while that request runs on another host thread, which is
// what the race detector needs to see.
func TestClientCloseFailsPendingRPCs(t *testing.T) {
	a, b := NewPipe(vclock.Real)
	blockOpen := make(chan struct{})
	fs := ramfs.New("u")
	fs.WriteFile("f", nil, 0664)
	go Serve(b, func(uname, aname string) (vfs.Node, error) {
		<-blockOpen
		return fs.Root(), nil
	}, vclock.Real)
	cl, err := NewClient(a, ClientConfig{Clock: vclock.Real})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Attach("u", "")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) //netvet:ignore realtime lets the attach reach the server's handler on the real clock
	cl.Close()
	close(blockOpen)
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending RPC succeeded after close")
		}
	case <-time.After(time.Second): //netvet:ignore realtime a deadline on the real clock this test is about
		t.Error("pending RPC hung after close")
	}
}

// TestClientCloseWakesPendingInIssueOrder: eight RPCs park on a server
// that never answers, and the client is closed. Their waiters wake in
// the order the RPCs were issued — tag order — in every run, not in
// the tag table's map order.
func TestClientCloseWakesPendingInIssueOrder(t *testing.T) {
	const rpcs, runs = 8, 20
	for run := range runs {
		var woke []int
		v := vclock.NewVirtual()
		v.Run(func() {
			cl, b := sessionOnly(t, v)
			if cl == nil {
				return
			}
			var ps []*Pending
			for i := range rpcs {
				p, err := cl.RPCAsync(&Fcall{Type: Tstat, Fid: uint32(i)})
				if err != nil {
					t.Error(err)
					return
				}
				ps = append(ps, p)
			}
			// The waiters park in the reverse of issue order, so only
			// the order of the wakes can put them back in it.
			wg := vclock.NewWaitGroup(v)
			for i := rpcs - 1; i >= 0; i-- {
				wg.Add(1)
				v.Go(func() {
					defer wg.Done()
					if _, err := ps[i].Wait(); err == nil {
						t.Errorf("RPC %d answered by a server that never answers", i)
					}
					woke = append(woke, i)
				})
			}
			v.Sleep(time.Millisecond)
			cl.Close()
			b.Close()
			wg.Wait()
		})
		for i, w := range woke {
			if w != i {
				t.Fatalf("run %d: waiters woke in order %v, want issue order", run, woke)
			}
		}
		if len(woke) != rpcs {
			t.Fatalf("run %d: %d of %d waiters woke", run, len(woke), rpcs)
		}
	}
}

// sessionOnly starts a client on v whose server answers the session and
// nothing after it, and returns the client and the server's end.
func sessionOnly(t *testing.T, v *vclock.Virtual) (*Client, MsgConn) {
	a, b := NewPipe(v)
	v.Go(func() {
		for {
			msg, err := b.ReadMsg()
			if err != nil {
				return
			}
			f, err := UnmarshalFcall(msg)
			block.PutBytes(msg)
			if err == nil && f.Type == Tsession {
				r, _ := MarshalFcall(&Fcall{Type: Rsession, Tag: f.Tag})
				b.WriteMsg(r)
			}
		}
	})
	cl, err := NewClient(a, ClientConfig{Clock: v})
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	return cl, b
}

// TestFailWakesInTagOrder: sixteen RPCs, more than one group of the tag
// table's map holds, each wait in a process of their own on a server
// that never answers, and the client is closed. Every one fails with
// ErrConnClosed, and they return in tag order: fail walks the tags
// sorted, not in the map's order.
func TestFailWakesInTagOrder(t *testing.T) {
	const rpcs = 16
	var tags []uint16
	v := vclock.NewVirtual()
	v.Run(func() {
		cl, b := sessionOnly(t, v)
		if cl == nil {
			return
		}
		defer b.Close()
		wg := vclock.NewWaitGroup(v)
		for i := range rpcs {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				p, err := cl.RPCAsync(&Fcall{Type: Tstat, Fid: uint32(i)})
				if err != nil {
					t.Error(err)
					return
				}
				tag := p.tag
				if _, err := p.Wait(); !errors.Is(err, ErrConnClosed) {
					t.Errorf("RPC with tag %d: %v, want ErrConnClosed", tag, err)
				}
				tags = append(tags, tag)
			})
		}
		v.Sleep(time.Millisecond)
		cl.Close()
		wg.Wait()
	})
	if len(tags) != rpcs || !slices.IsSorted(tags) {
		t.Fatalf("RPCs returned with tags %v, want all %d in tag order", tags, rpcs)
	}
}

// openLog is a directory whose every Open makes a handle numbered in
// open order, which notes its number in closed when it closes.
type openLog struct {
	opened int
	closed []int
}

type openLogNode struct{ l *openLog }

func (n openLogNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "log", Mode: 0666, Qid: vfs.Qid{Path: 1}}, nil
}
func (n openLogNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n openLogNode) Open(mode int) (vfs.Handle, error) {
	n.l.opened++
	return openLogHandle{l: n.l, n: n.l.opened - 1}, nil
}

type openLogHandle struct {
	l *openLog
	n int
}

func (h openLogHandle) Read(p []byte, off int64) (int, error)  { return 0, nil }
func (h openLogHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h openLogHandle) Close() error {
	h.l.closed = append(h.l.closed, h.n)
	return nil
}

// TestTeardownClosesFidsInFidOrder: when a connection dies, the server
// closes its open fids in fid order, not in the fid table's map order.
// The fids are opened in the reverse of fid order, so the handles must
// close in the reverse of open order.
func TestTeardownClosesFidsInFidOrder(t *testing.T) {
	const fids = 8
	l := new(openLog)
	root := func(vclock.Clock) vfs.Node { return openLogNode{l} }
	onTapped(t, root, ClientConfig{}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn) {
		r, err := cl.Attach("u", "")
		if err != nil {
			t.Error(err)
			return
		}
		var fs []Fid
		for range fids {
			f, err := r.Clone()
			if err != nil {
				t.Error(err)
				return
			}
			fs = append(fs, f)
		}
		for i := fids - 1; i >= 0; i-- {
			if err := fs[i].Open(vfs.OREAD); err != nil {
				t.Error(err)
				return
			}
		}
		cl.Close()
		v.Sleep(time.Millisecond) // the server's read loop sees the close
	})
	if len(l.closed) != fids {
		t.Fatalf("%d of %d handles closed", len(l.closed), fids)
	}
	for i, n := range l.closed {
		if n != fids-1-i {
			t.Fatalf("handles closed in open order %v, want %d down to 0", l.closed, fids-1)
		}
	}
}

func TestPipeSemantics(t *testing.T) {
	a, b := NewPipe(vclock.Real)
	if err := a.WriteMsg([]byte("one")); err != nil {
		t.Fatal(err)
	}
	m, err := b.ReadMsg()
	if err != nil || string(m) != "one" {
		t.Fatalf("read %q, %v", m, err)
	}
	// Close: peer reads drain then EOF.
	a.WriteMsg([]byte("two"))
	a.Close()
	m, err = b.ReadMsg()
	if err != nil || string(m) != "two" {
		t.Fatalf("drain read %q, %v", m, err)
	}
	if _, err := b.ReadMsg(); err != io.EOF {
		t.Errorf("post-close read err = %v, want EOF", err)
	}
	if err := b.WriteMsg([]byte("x")); err == nil {
		t.Error("write to closed peer succeeded")
	}
}

func TestStreamConnFraming(t *testing.T) {
	// A streamConn over an in-memory byte pipe delivers whole 9P
	// messages even when the underlying stream fragments them.
	pr, pw := io.Pipe()
	sc := NewStreamConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{pr, io.Discard, pr})
	msg, _ := MarshalFcall(&Fcall{Type: Twalk, Tag: 5, Fid: 1, Name: "x"})
	go func() {
		for _, c := range msg { // byte-at-a-time: worst-case fragmentation
			pw.Write([]byte{c})
		}
	}()
	got, err := sc.ReadMsg()
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("framed read mismatch: %v", err)
	}
}

func TestStreamConnRejectsBadSize(t *testing.T) {
	pr, pw := io.Pipe()
	// ReadMsg rejects after the 4-byte header; closing the read end
	// unblocks the writer goroutine stuck on the unconsumed tail.
	defer pr.Close()
	sc := NewStreamConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{pr, io.Discard, pr})
	go pw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0})
	if _, err := sc.ReadMsg(); err != ErrBadMsg {
		t.Errorf("oversize frame err = %v", err)
	}
}
