package ninep

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// countingConn wraps a MsgConn and counts outgoing messages by 9P
// type (the type byte sits after the 4-byte size prefix).
type countingConn struct {
	MsgConn
	counts [256]atomic.Int64
}

func (c *countingConn) WriteMsg(p []byte) error {
	if len(p) >= 5 {
		c.counts[p[4]].Add(1)
	}
	return c.MsgConn.WriteMsg(p)
}

func (c *countingConn) count(typ uint8) int64 { return c.counts[typ].Load() }

// onTapped runs body on a fresh virtual clock with a client,
// configured by cfg on that clock, of a 9P server that serves the node
// root makes over a pipe, behind a tap on the client's outgoing
// messages. A non-nil wrap puts one more layer between the client and
// the tap.
func onTapped(t *testing.T, root func(ck vclock.Clock) vfs.Node, cfg ClientConfig, wrap func(vclock.Clock, MsgConn) MsgConn, body func(v *vclock.Virtual, cl *Client, cc *countingConn)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		a, b := NewPipe(v)
		node := root(v)
		v.Go(func() {
			Serve(b, func(uname, aname string) (vfs.Node, error) { return node, nil }, v)
		})
		cc := &countingConn{MsgConn: a}
		var conn MsgConn = cc
		if wrap != nil {
			conn = wrap(v, cc)
		}
		cfg.Clock = v
		cl, err := NewClient(conn, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		body(v, cl, cc)
	})
}

// onCountingServer is onTapped serving a fresh ramfs.
func onCountingServer(t *testing.T, cfg ClientConfig, wrap func(vclock.Clock, MsgConn) MsgConn, body func(v *vclock.Virtual, cl *Client, cc *countingConn, fs *ramfs.FS)) {
	t.Helper()
	var fs *ramfs.FS
	root := func(ck vclock.Clock) vfs.Node {
		fs = ramfs.NewClock("bootes", ck)
		return fs.Root()
	}
	onTapped(t, root, cfg, wrap, func(v *vclock.Virtual, cl *Client, cc *countingConn) { body(v, cl, cc, fs) })
}

// openFile walks to name and opens it; nil means the test failed.
func openFile(t *testing.T, cl *Client, name string, mode int) *Fid {
	t.Helper()
	root, err := cl.Attach("glenda", "")
	if err != nil {
		t.Error(err)
		return nil
	}
	f, err := root.CloneWalk(name)
	if err != nil {
		t.Error(err)
		return nil
	}
	if err := f.Open(mode); err != nil {
		t.Error(err)
		return nil
	}
	return &f
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// TestWindowedReadCorrectness: a multi-fragment read through the
// window returns exactly the serial result, for sizes on and off the
// fragment boundary.
func TestWindowedReadCorrectness(t *testing.T) {
	onCountingServer(t, ClientConfig{FileTree: true, Window: 4}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn, fs *ramfs.FS) {
		for _, size := range []int{MaxFData + 1, 3 * MaxFData, 5*MaxFData - 77, 100 << 10} {
			want := pattern(size)
			fs.WriteFile("big", want, 0664)
			f := openFile(t, cl, "big", vfs.OREAD)
			if f == nil {
				return
			}
			got := make([]byte, size+MaxFData) // oversized buffer: EOF truncates
			n, err := f.Read(got, 0)
			if err != nil {
				t.Errorf("size %d: read: %v", size, err)
				return
			}
			if n != size {
				t.Errorf("size %d: read %d bytes", size, n)
				return
			}
			if !bytes.Equal(got[:n], want) {
				t.Errorf("size %d: content mismatch", size)
				return
			}
			f.Clunk()
		}
	})
}

// TestWindowedWriteCorrectness: a multi-fragment write lands intact.
func TestWindowedWriteCorrectness(t *testing.T) {
	onCountingServer(t, ClientConfig{FileTree: true, Window: 4}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn, fs *ramfs.FS) {
		root, _ := cl.Attach("glenda", "")
		f, err := root.Clone()
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Create("out", 0664, vfs.OWRITE); err != nil {
			t.Error(err)
			return
		}
		want := pattern(5*MaxFData - 123)
		if n, err := f.Write(want, 0); err != nil || n != len(want) {
			t.Errorf("write = %d, %v", n, err)
			return
		}
		f.Clunk()
		if got, _ := fs.ReadFile("out"); !bytes.Equal(got, want) {
			t.Errorf("content mismatch: %d vs %d bytes", len(got), len(want))
		}
	})
}

// TestSmallReadSingleRPC pins the invariant that a read of at most
// MaxFData bytes costs exactly one Tread, window or no window.
func TestSmallReadSingleRPC(t *testing.T) {
	onCountingServer(t, ClientConfig{FileTree: true, Window: 8}, nil, func(v *vclock.Virtual, cl *Client, cc *countingConn, fs *ramfs.FS) {
		fs.WriteFile("small", pattern(MaxFData), 0664)
		f := openFile(t, cl, "small", vfs.OREAD)
		if f == nil {
			return
		}
		before := cc.count(Tread)
		buf := make([]byte, MaxFData)
		if n, err := f.Read(buf, 0); err != nil || n != MaxFData {
			t.Errorf("read = %d, %v", n, err)
			return
		}
		if got := cc.count(Tread) - before; got != 1 {
			t.Errorf("read of MaxFData issued %d Treads, want 1", got)
			return
		}
		f.Clunk()
	})
}

// gateFS serves one file whose reads at or past a gate offset block
// until released. It pins the speculative tail of a windowed read in
// the server, so the client provably still has those fragments
// outstanding when the short reply truncates the transfer — without
// the gate, fast EOF replies can race the truncation and the flush
// batch legitimately has nothing left to abandon.
type gateFS struct {
	content []byte
	gate    int64
	release *vclock.Mailbox[struct{}] // closed to release
}

func (f *gateFS) Root() vfs.Node { return gateNode{f: f} }

type gateNode struct{ f *gateFS }

func (n gateNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "gate", Mode: 0666, Length: int64(len(n.f.content)), Qid: vfs.Qid{Path: 4}}, nil
}
func (n gateNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n gateNode) Open(mode int) (vfs.Handle, error)  { return gateHandle{f: n.f}, nil }

type gateHandle struct{ f *gateFS }

func (h gateHandle) Read(p []byte, off int64) (int, error) {
	if off >= h.f.gate {
		h.f.release.Recv()
	}
	if off >= int64(len(h.f.content)) {
		return 0, nil
	}
	return copy(p, h.f.content[off:]), nil
}
func (h gateHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h gateHandle) Close() error                           { return nil }

// TestWindowedShortReadTruncates: when an early fragment comes back
// short (EOF inside the window), the bytes past it — already
// speculatively requested — must not leak into the result, and the
// later fragments are abandoned with Tflush rather than waited on.
// The gate holds the speculative tail in the server so exactly the
// three fragments past the short one are still in flight at
// truncation time.
func TestWindowedShortReadTruncates(t *testing.T) {
	size := 2*MaxFData + 100 // third fragment comes back short
	want := pattern(size)
	var fs *gateFS
	root := func(ck vclock.Clock) vfs.Node {
		fs = &gateFS{content: want, gate: 3 * MaxFData, release: vclock.NewMailbox[struct{}](ck, 0)}
		return fs.Root()
	}
	onTapped(t, root, ClientConfig{FileTree: true, Window: 8}, nil, func(_ *vclock.Virtual, cl *Client, cc *countingConn) {
		defer fs.release.Close()
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
		got := make([]byte, 6*MaxFData) // fans into 6 fragments, 3 past the gate
		n, err := f.Read(got, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if n != size || !bytes.Equal(got[:n], want) {
			t.Errorf("read %d bytes, want %d", n, size)
			return
		}
		if flushes := cc.count(Tflush); flushes != 3 {
			t.Errorf("short read in the window sent %d Tflushes, want 3 (one per gated speculative fragment)", flushes)
			return
		}
		f.Clunk()
	})
}

// streamFS serves one stream-like file: each read returns at most 100
// bytes, like a delimited device delivering one message per Tread, and
// counts how many reads reach the handle.
type streamFS struct {
	reads atomic.Int64
}

func (f *streamFS) Root() vfs.Node { return streamNode{f: f} }

type streamNode struct{ f *streamFS }

func (n streamNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "stream", Mode: 0666, Qid: vfs.Qid{Path: 3}}, nil
}
func (n streamNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (n streamNode) Open(mode int) (vfs.Handle, error)  { return streamHandle{f: n.f}, nil }

type streamHandle struct{ f *streamFS }

func (h streamHandle) Read(p []byte, off int64) (int, error) {
	h.f.reads.Add(1)
	n := min(len(p), 100)
	for i := range p[:n] {
		p[i] = 'm'
	}
	return n, nil
}
func (h streamHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h streamHandle) Close() error                           { return nil }

// TestDefaultConfigReadsSerial pins the zero ClientConfig's safety
// contract on delimited and stream devices: a large read issues
// exactly one Tread at a time and a short reply ends it, so no
// speculative fragment ever reaches the server to consume stream data
// it would then throw away. (Fan-out is an explicit opt-in — FileTree
// — for plain file trees.)
func TestDefaultConfigReadsSerial(t *testing.T) {
	fs := &streamFS{}
	root := func(vclock.Clock) vfs.Node { return fs.Root() }
	onTapped(t, root, ClientConfig{}, nil, func(_ *vclock.Virtual, cl *Client, cc *countingConn) {
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
		buf := make([]byte, 3*MaxFData) // would fan into 3 Treads if windowed
		n, err := f.Read(buf, 0)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if n != 100 {
			t.Errorf("read = %d bytes, want the single 100-byte message", n)
		}
		if got := cc.count(Tread); got != 1 {
			t.Errorf("default-config large read issued %d Treads, want 1", got)
		}
		if got := fs.reads.Load(); got != 1 {
			t.Errorf("server handle saw %d reads, want 1 (speculative fragment consumed stream data)", got)
		}
		f.Clunk()
	})
}

// TestTagExhaustionBlocks is the regression test for the tag
// allocator: when every tag up to the in-flight cap is outstanding, the
// next RPC must park on the condition variable (not spin) and resume
// as soon as a tag frees.
func TestTagExhaustionBlocks(t *testing.T) {
	var fs *blockingFS
	root := func(ck vclock.Clock) vfs.Node {
		fs = newBlockingFS(ck)
		node, _ := fs.Attach("")
		return node
	}
	// A cap of 3 is spent by the three parked reads; the probe must
	// block.
	onTapped(t, root, ClientConfig{inFlightCap: 3}, nil, func(v *vclock.Virtual, cl *Client, _ *countingConn) {
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

		// Fill the in-flight budget with reads the server will hold.
		w := f.NewWindow()
		defer w.Cancel()
		for range 3 {
			if err := w.Read(0, 8); err != nil {
				t.Error(err)
				return
			}
		}

		// The budget is spent: the next RPC must block in allocTag.
		statDone := vclock.NewMailbox[error](v, 1)
		v.Go(func() {
			_, err := root.Stat()
			statDone.Send(err)
		})
		v.Sleep(50 * time.Millisecond)
		if err, ok := statDone.TryRecv(); ok {
			t.Errorf("rpc past the in-flight cap returned early: %v", err)
			return
		}

		// Releasing the server lets the parked reads answer, freeing
		// tags; the blocked RPC must then complete.
		fs.release.Close()
		if err, _ := statDone.Recv(); err != nil {
			t.Errorf("stat after tags freed: %v", err)
			return
		}
		for w.Len() > 0 {
			if _, _, _, err := w.Reap(); err != nil {
				t.Errorf("parked read: %v", err)
				return
			}
		}
		f.Clunk()
	})
}

// TestWindowClampedToMaxInFlight: the window can never exceed the tag
// budget, or a single large read would deadlock against itself.
func TestWindowClampedToMaxInFlight(t *testing.T) {
	cfg := ClientConfig{Window: 64, inFlightCap: 4}.withDefaults()
	if cfg.Window != 4 {
		t.Fatalf("window = %d, want clamped to 4", cfg.Window)
	}
}
