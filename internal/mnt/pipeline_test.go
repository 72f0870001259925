package mnt

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// mountedConfig is mounted with an explicit pipelining configuration.
func mountedConfig(t *testing.T, cfg Config) (vfs.Node, *ramfs.FS, *ninep.Client) {
	t.Helper()
	fs := ramfs.New("srv")
	a, b := ninep.NewPipe()
	go ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
		return fs.Root(), nil
	})
	root, cl, err := MountConfig(a, "glenda", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return root, fs, cl
}

func testPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*13 + i>>8)
	}
	return p
}

func openPath(t *testing.T, root vfs.Node, path string, mode int) vfs.Handle {
	t.Helper()
	n, err := root.Walk(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.Open(mode)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReadaheadSequential: a sequential chunk-by-chunk scan through
// the readahead path returns exactly the file, including the short
// tail chunk.
func TestReadaheadSequential(t *testing.T) {
	root, fs, _ := mountedConfig(t, FileConfig())
	size := 10*ninep.MaxFData + 1234
	want := testPattern(size)
	fs.WriteFile("big", want, 0664)
	h := openPath(t, root, "big", vfs.OREAD)
	defer h.Close()
	var got []byte
	buf := make([]byte, ninep.MaxFData)
	off := int64(0)
	for {
		n, err := h.Read(buf, off)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
		off += int64(n)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sequential scan read %d bytes, want %d", len(got), len(want))
	}
}

// TestReadaheadRandomJump: readahead must not bleed speculative bytes
// into a read at an unrelated offset.
func TestReadaheadRandomJump(t *testing.T) {
	root, fs, _ := mountedConfig(t, FileConfig())
	size := 8 * ninep.MaxFData
	want := testPattern(size)
	fs.WriteFile("big", want, 0664)
	h := openPath(t, root, "big", vfs.OREAD)
	defer h.Close()
	buf := make([]byte, ninep.MaxFData)
	// Two sequential reads arm the readahead...
	h.Read(buf, 0)
	h.Read(buf, int64(ninep.MaxFData))
	// ...then jump far away while speculative Treads are in flight.
	jump := int64(6 * ninep.MaxFData)
	n, err := h.Read(buf, jump)
	if err != nil {
		t.Fatalf("jump read: %v", err)
	}
	if !bytes.Equal(buf[:n], want[jump:jump+int64(n)]) {
		t.Fatal("jump read returned readahead bytes from the wrong offset")
	}
	// And writing through the same server file sees no stale cache:
	// a fresh sequential scan picks up the jump's fragment correctly.
	n, err = h.Read(buf, jump+int64(n))
	if err != nil {
		t.Fatalf("follow-up read: %v", err)
	}
	if !bytes.Equal(buf[:n], want[jump+int64(ninep.MaxFData):jump+2*int64(ninep.MaxFData)]) {
		t.Fatal("follow-up read mismatch")
	}
}

// TestWriteBehindCoalesces: small sequential writes through the
// write-behind buffer land intact, in order, after Close.
func TestWriteBehindCoalesces(t *testing.T) {
	root, fs, _ := mountedConfig(t, FileConfig())
	fs.WriteFile("out", nil, 0664)
	h := openPath(t, root, "out", vfs.OWRITE)
	want := testPattern(3*ninep.MaxFData + 517)
	off := int64(0)
	for len(want[off:]) > 0 {
		n := min(1000, len(want)-int(off))
		wn, err := h.Write(want[off:off+int64(n)], off)
		if err != nil || wn != n {
			t.Fatalf("write at %d = %d, %v", off, wn, err)
		}
		off += int64(n)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, _ := fs.ReadFile("out"); !bytes.Equal(got, want) {
		t.Fatalf("server holds %d bytes, want %d", len(got), len(want))
	}
}

// TestWriteBehindReadBarrier: a read on a handle with dirty
// write-behind data must see the writes (the barrier flushes before
// reading).
func TestWriteBehindReadBarrier(t *testing.T) {
	root, fs, _ := mountedConfig(t, FileConfig())
	fs.WriteFile("rw", nil, 0664)
	h := openPath(t, root, "rw", vfs.ORDWR)
	want := testPattern(2000)
	for off := 0; off < len(want); off += 500 {
		if _, err := h.Write(want[off:off+500], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, len(want))
	n, err := h.Read(buf, 0)
	if err != nil || n != len(want) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("read did not observe buffered write-behind data")
	}
	h.Close()
}

// TestCloseIdempotent: the second Close must not double-clunk the fid
// (which would kill an unrelated fid that reused the number) and must
// not error.
func TestCloseIdempotent(t *testing.T) {
	root, fs, _ := mountedConfig(t, FileConfig())
	fs.WriteFile("f", []byte("x"), 0664)
	h := openPath(t, root, "f", vfs.OREAD)
	if err := h.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The connection is still healthy and other fids unaffected.
	if _, err := root.Walk("f"); err != nil {
		t.Fatalf("connection damaged by double close: %v", err)
	}
}

// TestFinalizerAfterClientClose: nodes collected after the client is
// gone must not fire clunk goroutines at a dead connection (leakcheck
// in TestMain would catch a goroutine parked on a closed client).
func TestFinalizerAfterClientClose(t *testing.T) {
	root, fs, cl := mountedConfig(t, Config{})
	fs.WriteFile("f", nil, 0664)
	for range 50 {
		if _, err := root.Walk("f"); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	runtime.GC()
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
}

// blockSrv serves one file whose reads beyond a threshold offset park
// until released — a stand-in for a slow or wedged server, so a test
// can hold speculative readahead Treads in flight deliberately.
type blockSrv struct {
	blockFrom int64
	release   chan struct{}
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
		<-h.s.release
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
// exit (leakcheck in TestMain), and the pooled buffers the server
// allocated for the suppressed replies must return to the allocator.
func TestFlushRacesReadahead(t *testing.T) {
	srv := &blockSrv{blockFrom: 2 * int64(ninep.MaxFData), release: make(chan struct{})}
	a, b := ninep.NewPipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
			return srv.Root(), nil
		})
	}()
	before := block.Snapshot()

	root, cl, err := MountConfig(a, "glenda", "", FileConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.Walk("slow")
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	// Two sequential full reads arm the readahead; the speculative
	// Treads beyond blockFrom park in the server.
	buf := make([]byte, ninep.MaxFData)
	if _, err := h.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(buf, int64(ninep.MaxFData)); err != nil {
		t.Fatal(err)
	}
	// Close while they are in flight: cancelRA must Tflush them and
	// return promptly rather than waiting out the server.
	closed := make(chan error, 1)
	go func() { closed <- h.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited for flushed readahead replies")
	}
	// Release the parked reads; their replies are suppressed
	// server-side and their pooled buffers recycled.
	close(srv.release)
	cl.Close()
	<-serveDone

	// Every block the exchange allocated must be back in the pool.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := block.Snapshot()
		if after.InFlight == before.InFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled blocks leaked: in flight %d -> %d", before.InFlight, after.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
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
	a, b := ninep.NewPipe()
	go ninep.Serve(b, func(uname, aname string) (vfs.Node, error) {
		return errSrv{}.Root(), nil
	})
	root, cl, err := MountConfig(a, "glenda", "", FileConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n, err := root.Walk("full")
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.Open(vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPattern(ninep.MaxFData)
	// First write is synchronous and accepted; the rest queue behind
	// the window and fail server-side.
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
		t.Fatal("write-behind swallowed the server's write error")
	}
}
