package mnt

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

func testPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*13 + i>>8)
	}
	return p
}

// openPath walks to path and opens it; nil means the test failed.
func openPath(t *testing.T, root vfs.Node, path string, mode int) vfs.Handle {
	t.Helper()
	n, err := root.Walk(path)
	if err != nil {
		t.Error(err)
		return nil
	}
	h, err := n.Open(mode)
	if err != nil {
		t.Error(err)
		return nil
	}
	return h
}

// TestReadaheadSequential: a sequential chunk-by-chunk scan through
// the readahead path returns exactly the file, including the short
// tail chunk.
func TestReadaheadSequential(t *testing.T) {
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		size := 10*ninep.MaxFData + 1234
		want := testPattern(size)
		fs.WriteFile("big", want, 0664)
		h := openPath(t, root, "big", vfs.OREAD)
		if h == nil {
			return
		}
		defer h.Close()
		var got []byte
		buf := make([]byte, ninep.MaxFData)
		off := int64(0)
		for {
			n, err := h.Read(buf, off)
			if err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
			off += int64(n)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sequential scan read %d bytes, want %d", len(got), len(want))
		}
	})
}

// TestReadaheadRandomJump: readahead must not bleed speculative bytes
// into a read at an unrelated offset.
func TestReadaheadRandomJump(t *testing.T) {
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		size := 8 * ninep.MaxFData
		want := testPattern(size)
		fs.WriteFile("big", want, 0664)
		h := openPath(t, root, "big", vfs.OREAD)
		if h == nil {
			return
		}
		defer h.Close()
		buf := make([]byte, ninep.MaxFData)
		// Two sequential reads arm the readahead...
		h.Read(buf, 0)
		h.Read(buf, int64(ninep.MaxFData))
		// ...then jump far away while speculative Treads are in flight.
		jump := int64(6 * ninep.MaxFData)
		n, err := h.Read(buf, jump)
		if err != nil {
			t.Errorf("jump read: %v", err)
			return
		}
		if !bytes.Equal(buf[:n], want[jump:jump+int64(n)]) {
			t.Error("jump read returned readahead bytes from the wrong offset")
			return
		}
		// And writing through the same server file sees no stale cache:
		// a fresh sequential scan picks up the jump's fragment correctly.
		n, err = h.Read(buf, jump+int64(n))
		if err != nil {
			t.Errorf("follow-up read: %v", err)
			return
		}
		if !bytes.Equal(buf[:n], want[jump+int64(ninep.MaxFData):jump+2*int64(ninep.MaxFData)]) {
			t.Error("follow-up read mismatch")
		}
	})
}

// TestWriteBehindCoalesces: small sequential writes through the
// write-behind buffer land intact, in order, after Close.
func TestWriteBehindCoalesces(t *testing.T) {
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		fs.WriteFile("out", nil, 0664)
		h := openPath(t, root, "out", vfs.OWRITE)
		if h == nil {
			return
		}
		want := testPattern(3*ninep.MaxFData + 517)
		off := int64(0)
		for len(want[off:]) > 0 {
			n := min(1000, len(want)-int(off))
			wn, err := h.Write(want[off:off+int64(n)], off)
			if err != nil || wn != n {
				t.Errorf("write at %d = %d, %v", off, wn, err)
				return
			}
			off += int64(n)
		}
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if got, _ := fs.ReadFile("out"); !bytes.Equal(got, want) {
			t.Errorf("server holds %d bytes, want %d", len(got), len(want))
		}
	})
}

// TestWriteBehindReadBarrier: a read on a handle with dirty
// write-behind data must see the writes (the barrier flushes before
// reading).
func TestWriteBehindReadBarrier(t *testing.T) {
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		fs.WriteFile("rw", nil, 0664)
		h := openPath(t, root, "rw", vfs.ORDWR)
		if h == nil {
			return
		}
		want := testPattern(2000)
		for off := 0; off < len(want); off += 500 {
			if _, err := h.Write(want[off:off+500], int64(off)); err != nil {
				t.Error(err)
				return
			}
		}
		buf := make([]byte, len(want))
		n, err := h.Read(buf, 0)
		if err != nil || n != len(want) {
			t.Errorf("read = %d, %v", n, err)
			return
		}
		if !bytes.Equal(buf, want) {
			t.Error("read did not observe buffered write-behind data")
			return
		}
		h.Close()
	})
}

// TestCloseIdempotent: the second Close must not double-clunk the fid
// (which would kill an unrelated fid that reused the number) and must
// not error.
func TestCloseIdempotent(t *testing.T) {
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		fs.WriteFile("f", []byte("x"), 0664)
		h := openPath(t, root, "f", vfs.OREAD)
		if h == nil {
			return
		}
		if err := h.Close(); err != nil {
			t.Errorf("first close: %v", err)
			return
		}
		if err := h.Close(); err != nil {
			t.Errorf("second close: %v", err)
			return
		}
		// The connection is still healthy and other fids unaffected.
		if _, err := root.Walk("f"); err != nil {
			t.Errorf("connection damaged by double close: %v", err)
		}
	})
}

// blockSrv serves one file whose reads beyond a threshold offset park
// until released — a stand-in for a slow or wedged server, so a test
// can hold speculative readahead Treads in flight deliberately.
type blockSrv struct {
	blockFrom int64
	release   *vclock.Mailbox[struct{}] // closed to release
}

func (s *blockSrv) Root() vfs.Node { return blockSrvNode{s: s} }

type blockSrvNode struct{ s *blockSrv }

func (n blockSrvNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "/", Mode: vfs.DMDIR | 0777, Qid: vfs.Qid{Path: 1, Type: vfs.QTDIR}}, nil
}
func (n blockSrvNode) Walk(name string) (vfs.Node, error) { return blockSrvFile{s: n.s}, nil }
func (n blockSrvNode) Open(mode int) (vfs.Handle, error)  { return nil, vfs.ErrIsDir }

type blockSrvFile struct{ s *blockSrv }

func (f blockSrvFile) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "slow", Mode: 0666, Qid: vfs.Qid{Path: 2}}, nil
}
func (f blockSrvFile) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (f blockSrvFile) Open(mode int) (vfs.Handle, error)  { return blockSrvHandle{s: f.s}, nil }

type blockSrvHandle struct{ s *blockSrv }

func (h blockSrvHandle) Read(p []byte, off int64) (int, error) {
	if off >= h.s.blockFrom {
		h.s.release.Recv()
	}
	for i := range p {
		p[i] = byte(off + int64(i))
	}
	return len(p), nil
}
func (h blockSrvHandle) Write(p []byte, off int64) (int, error) { return len(p), nil }
func (h blockSrvHandle) Close() error                           { return nil }

// TestFlushRacesReadahead: close a handle while its speculative
// readahead Treads are parked in the server, then let them finish.
// The flushed replies must not be delivered, every goroutine must
// exit (leakcheck in TestMain), and every pooled buffer must return to
// the allocator: the Rreads the client received are blocks (their wire
// buffers), and the suppressed replies the server's marshal buffers.
func TestFlushRacesReadahead(t *testing.T) {
	before := block.Snapshot()
	v := vclock.NewVirtual()
	v.Run(func() {
		srv := &blockSrv{blockFrom: 2 * int64(ninep.MaxFData), release: vclock.NewMailbox[struct{}](v, 0)}
		a, b := ninep.NewPipe(v)
		serveDone := vclock.NewWaitGroup(v)
		serveDone.Add(1)
		v.Go(func() {
			defer serveDone.Done()
			ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
				return srv.Root(), nil
			}, v)
		})
		defer serveDone.Wait()
		cfg := FileConfig()
		cfg.Client.Clock = v
		root, cl, err := MountConfig(a, "glenda", "", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		defer srv.release.Close()
		n, err := root.Walk("slow")
		if err != nil {
			t.Error(err)
			return
		}
		h, err := n.Open(vfs.OREAD)
		if err != nil {
			t.Error(err)
			return
		}
		// Two sequential full reads arm the readahead; the
		// speculative Treads beyond blockFrom park in the server.
		buf := make([]byte, ninep.MaxFData)
		if _, err := h.Read(buf, 0); err != nil {
			t.Error(err)
			return
		}
		if _, err := h.Read(buf, int64(ninep.MaxFData)); err != nil {
			t.Error(err)
			return
		}
		// Close while they are in flight: cancelRA must Tflush them
		// and return without waiting out the server, which holds them
		// until the deferred release.
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// Then the parked reads are released, their replies
		// suppressed server-side and their pooled buffers recycled.
	})
	// Every block and every raw buffer the exchange allocated must be
	// back in the pool. A reply that reached the client is a block the
	// leak gate counts; the suppressed ones never left the server, whose
	// marshal buffers are still raw GetBytes slices.
	if after := block.Snapshot(); after.InFlight != before.InFlight || after.RawInFlight != before.RawInFlight {
		t.Fatalf("pooled buffers leaked: blocks in flight %d -> %d, raw buffers in flight %d -> %d",
			before.InFlight, after.InFlight, before.RawInFlight, after.RawInFlight)
	}
}

// errSrv accepts the first write and fails every later one: the shape
// of a file server running out of space mid-stream.
type errSrv struct{}

var errNoSpace = errors.New("no space on device")

func (errSrv) Root() vfs.Node { return errSrvNode{} }

type errSrvNode struct{}

func (errSrvNode) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "/", Mode: vfs.DMDIR | 0777, Qid: vfs.Qid{Path: 1, Type: vfs.QTDIR}}, nil
}
func (errSrvNode) Walk(name string) (vfs.Node, error) { return errSrvFile{}, nil }
func (errSrvNode) Open(mode int) (vfs.Handle, error)  { return nil, vfs.ErrIsDir }

type errSrvFile struct{}

func (errSrvFile) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "full", Mode: 0666, Qid: vfs.Qid{Path: 2}}, nil
}
func (errSrvFile) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotExist }
func (errSrvFile) Open(mode int) (vfs.Handle, error)  { return errSrvHandle{}, nil }

type errSrvHandle struct{}

func (errSrvHandle) Read(p []byte, off int64) (int, error) { return 0, nil }
func (errSrvHandle) Write(p []byte, off int64) (int, error) {
	if off == 0 {
		return len(p), nil
	}
	return 0, errNoSpace
}
func (errSrvHandle) Close() error { return nil }

// TestWriteBehindErrorSurfaces: an asynchronous write-behind failure
// must reach the caller — on a later Write or, at the latest, on
// Close — never be swallowed.
func TestWriteBehindErrorSurfaces(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		a, b := ninep.NewPipe(v)
		v.Go(func() {
			ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
				return errSrv{}.Root(), nil
			}, v)
		})
		cfg := FileConfig()
		cfg.Client.Clock = v
		root, cl, err := MountConfig(a, "glenda", "", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		n, err := root.Walk("full")
		if err != nil {
			t.Error(err)
			return
		}
		h, err := n.Open(vfs.OWRITE)
		if err != nil {
			t.Error(err)
			return
		}
		payload := testPattern(ninep.MaxFData)
		// First write is synchronous and accepted; the rest queue
		// behind the window and fail server-side.
		var sawErr error
		off := int64(0)
		for range 8 {
			_, err := h.Write(payload, off)
			if err != nil {
				sawErr = err
				break
			}
			off += int64(len(payload))
		}
		if err := h.Close(); err != nil && sawErr == nil {
			sawErr = err
		}
		if sawErr == nil {
			t.Error("write-behind swallowed the server's write error")
		}
	})
}

// TestReadaheadRestFreedOnClose: a reader taking half a fragment at a
// time leaves the other half buffered in the handle, and that half is
// the reply's wire buffer: the handle holds it as a block between
// reads, and Close frees it with the readahead still in flight.
func TestReadaheadRestFreedOnClose(t *testing.T) {
	before := block.Snapshot().InFlight
	onMount(t, FileConfig(), func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		data := testPattern(8 * ninep.MaxFData)
		fs.WriteFile("f", data, 0664)
		n, err := root.Walk("f")
		if err != nil {
			t.Error(err)
			return
		}
		h, err := n.Open(vfs.OREAD)
		if err != nil {
			t.Error(err)
			return
		}
		half := make([]byte, ninep.MaxFData/2)
		for off := 0; off < 5*len(half); off += len(half) {
			if n, err := h.Read(half, int64(off)); err != nil || !bytes.Equal(half[:n], data[off:off+len(half)]) {
				t.Errorf("read at %d: %d bytes, %v", off, n, err)
				return
			}
		}
		v.Sleep(time.Millisecond) // the readahead lands
		if held := block.Snapshot().InFlight - before; held < 1 {
			t.Errorf("%d blocks held with half a fragment buffered, want at least 1", held)
		}
		if err := h.Close(); err != nil {
			t.Error(err)
		}
	})
	if d := block.Snapshot().InFlight - before; d != 0 {
		t.Errorf("%d block(s) never freed after Close", d)
	}
}

// TestWriteBehindUnalignedFragments: sequential writes of every shape —
// shorter than a fragment, crossing one boundary or several, ending a
// byte short of one — and an out-of-sequence write in the middle land
// on the server byte for byte, in exactly the Twrites the coalescing
// rule names: each run of sequential writes is cut into MaxFData
// fragments from where it starts, and what is left goes out at the
// barrier; a first or out-of-sequence write goes out on its own.
func TestWriteBehindUnalignedFragments(t *testing.T) {
	const frag = ninep.MaxFData
	type write struct {
		off int64
		n   int
	}
	// Two sequential runs, the second starting off a fragment boundary
	// after an out-of-sequence write. The first write of the handle is
	// synchronous.
	var writes []write
	off := int64(0)
	for _, n := range []int{100, 7000, 1092, 5, frag - 5, 2*frag + 7, 1, frag - 8, 3, 20000, frag, 1} {
		writes = append(writes, write{off, n})
		off += int64(n)
	}
	gap := off // the out-of-sequence write leaves a hole from here
	restart := off + 3*frag + 333
	writes = append(writes, write{restart, 50})
	off = restart + 50
	for _, n := range []int{4000, 9000, frag, 300, 3*frag - 1} {
		writes = append(writes, write{off, n})
		off += int64(n)
	}
	size := off

	// The rule, as a model: a first or out-of-sequence write goes out
	// whole, in fragments from its offset (after a barrier); a
	// sequential one joins the buffer, which goes out a fragment at a
	// time and, at a barrier, whatever is left.
	var want []string
	emit := func(off int64, n int) {
		for n > 0 {
			k := min(n, frag)
			want = append(want, fmt.Sprintf("Twrite off=%d count=%d", off, k))
			off += int64(k)
			n -= k
		}
	}
	var bufOff, end int64
	bufLen := 0
	barrier := func() {
		emit(bufOff, bufLen)
		bufOff += int64(bufLen)
		bufLen = 0
	}
	for i, w := range writes {
		if i == 0 || w.off != end {
			barrier()
			emit(w.off, w.n)
		} else {
			if bufLen == 0 {
				bufOff = w.off
			}
			bufLen += w.n
			for bufLen >= frag {
				emit(bufOff, frag)
				bufOff += frag
				bufLen -= frag
			}
		}
		end = w.off + int64(w.n)
	}
	barrier()

	data := testPattern(int(size))
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("srv", v)
		fs.WriteFile("f", nil, 0664)
		a, b := ninep.NewPipe(v)
		v.Go(func() {
			ninep.Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, v)
		})
		tap := newWireTap(a)
		cfg := FileConfig()
		cfg.Client.Clock = v
		root, cl, err := MountConfig(tap, "glenda", "", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		h := openPath(t, root, "f", vfs.OWRITE)
		if h == nil {
			return
		}
		for _, w := range writes {
			// Each write comes from a buffer of its own, scribbled
			// over once the write returns: whatever the driver keeps
			// must be its own copy.
			p := bytes.Clone(data[w.off : w.off+int64(w.n)])
			if n, err := h.Write(p, w.off); err != nil || n != w.n {
				t.Errorf("write %d at %d = %d, %v", w.n, w.off, n, err)
				return
			}
			clear(p)
		}
		if err := h.Close(); err != nil {
			t.Error(err)
			return
		}
		got, _ := fs.ReadFile("f")
		wantFile := bytes.Clone(data)
		clear(wantFile[gap:restart])
		if !bytes.Equal(got, wantFile) {
			t.Errorf("server holds %d bytes, not the %d written", len(got), len(wantFile))
		}
		tap.mu.Lock()
		var sent []string
		for _, l := range tap.lines {
			if _, rest, ok := strings.Cut(l, " Twrite "); ok {
				sent = append(sent, "Twrite "+rest)
			}
		}
		tap.mu.Unlock()
		if !slices.Equal(sent, want) {
			t.Errorf("Twrites on the wire:\n%s\nwant:\n%s", strings.Join(sent, "\n"), strings.Join(want, "\n"))
		}
	})
}
