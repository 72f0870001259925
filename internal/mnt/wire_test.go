package mnt

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_trace.golden from this run")

// wireTap records every T-message the mount driver puts on the wire:
// type, offset, count and, for a Tflush, the position in the trace of
// the request its oldtag names. It also swallows the reply to every
// Tread whose offset lies in the held range, as a server too slow to
// answer before the driver gives the fragment up would: a script holds
// exactly the speculative fragments it expects to see flushed, so what
// the driver sends depends on its own logic alone, never on how fast
// the server happened to answer. It can turn one Tread's reply into an
// Rerror. And it can gate replies: withhold those to Treads in a range
// until the driver has sent a Tread at a later offset, so a script that
// finishes proves the driver sent the later request before it waited
// for the earlier reply.
type wireTap struct {
	ninep.MsgConn
	mu     sync.Mutex
	lines  []string
	byTag  map[uint16]int
	lo, hi int64
	held   map[uint16]bool
	failAt int64 // the next Tread at this offset is answered with an Rerror; -1 none
	failed map[uint16]bool

	gateLo, gateHi, gateUntil int64
	gated                     map[uint16]bool
	stash                     [][]byte // gated replies, delivered once the gate opens
}

func newWireTap(c ninep.MsgConn) *wireTap {
	return &wireTap{MsgConn: c, byTag: make(map[uint16]int),
		held: make(map[uint16]bool), failAt: -1, failed: make(map[uint16]bool),
		gated: make(map[uint16]bool)}
}

// gate withholds the replies to Treads at offsets in [lo, hi) until a
// Tread at offset until has gone out.
func (w *wireTap) gate(lo, hi, until int64) {
	w.mu.Lock()
	w.gateLo, w.gateHi, w.gateUntil = lo, hi, until
	w.mu.Unlock()
}

// hold swallows the replies to Treads at offsets in [lo, hi) from now
// on.
func (w *wireTap) hold(lo, hi int64) {
	w.mu.Lock()
	w.lo, w.hi = lo, hi
	w.mu.Unlock()
}

func (w *wireTap) WriteMsg(p []byte) error {
	f, err := ninep.UnmarshalFcall(p)
	if err != nil {
		return err
	}
	w.mu.Lock()
	line := fmt.Sprintf("%2d %s", len(w.lines), ninep.TypeName(f.Type))
	switch f.Type {
	case ninep.Tread:
		line += fmt.Sprintf(" off=%d count=%d", f.Offset, f.Count)
		if f.Offset >= w.lo && f.Offset < w.hi {
			w.held[f.Tag] = true
		}
		if f.Offset == w.failAt {
			w.failed[f.Tag] = true
			w.failAt = -1
		}
		if f.Offset >= w.gateLo && f.Offset < w.gateHi {
			w.gated[f.Tag] = true
		}
		if f.Offset == w.gateUntil {
			// The gate opens, for good: the trigger's own reply
			// wakes ReadMsg, which then drains the stash.
			w.gateLo, w.gateHi = 0, 0
			clear(w.gated)
		}
	case ninep.Twrite:
		line += fmt.Sprintf(" off=%d count=%d", f.Offset, len(f.Data))
	case ninep.Tflush:
		line += fmt.Sprintf(" old=%d", w.byTag[f.Oldtag])
	}
	w.byTag[f.Tag] = len(w.lines)
	w.lines = append(w.lines, line)
	w.mu.Unlock()
	return w.MsgConn.WriteMsg(p)
}

func (w *wireTap) ReadMsg() ([]byte, error) {
	for {
		w.mu.Lock()
		if n := len(w.stash); n > 0 && len(w.gated) == 0 {
			m := w.stash[n-1]
			w.stash = w.stash[:n-1]
			w.mu.Unlock()
			return m, nil
		}
		w.mu.Unlock()
		m, err := w.MsgConn.ReadMsg()
		if err != nil {
			return nil, err
		}
		f, err := ninep.UnmarshalFcall(m)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		drop := f.Type == ninep.Rread && w.held[f.Tag]
		fail := f.Type == ninep.Rread && w.failed[f.Tag]
		gated := f.Type == ninep.Rread && w.gated[f.Tag]
		if gated {
			w.stash = append(w.stash, m)
		}
		w.mu.Unlock()
		switch {
		case gated:
			continue
		case fail:
			block.PutBytes(m)
			return ninep.MarshalFcall(&ninep.Fcall{Type: ninep.Rerror, Tag: f.Tag, Ename: errScripted.Error()})
		case !drop:
			return m, nil
		}
		block.PutBytes(m)
	}
}

var errScripted = errors.New("scripted read failure")

// TestMountWireTrace pins the mount driver's wire: the T-messages nine
// scripted handles send, in order, and what each adds to the driver's
// counters, against a golden whose first seven scripts were recorded
// before the fragment windows were unified. A change to the driver that
// moves one RPC, one count, one Tflush or one counter shows up as a diff
// of the golden.
func TestMountWireTrace(t *testing.T) {
	const frag = ninep.MaxFData
	const never = int64(1) << 62
	scenarios := []struct {
		name   string
		cfg    Config
		size   int
		mode   int
		script func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte)
	}{
		{"device profile, 20 KiB read", Config{}, 3 * frag, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				wantRead(t, h, file, 20<<10, 0, 20<<10)
			}},
		{"file profile, 64 KiB read with a short fifth fragment", FileConfig(), 4*frag + 100, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				tap.hold(5*frag, never)
				wantRead(t, h, file, 8*frag, 0, 4*frag+100)
			}},
		{"file profile, sequential 8 KiB scan: arm, break pattern, resume, EOF mid-fragment", FileConfig(), 19*frag + 3000, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				// The four fragments in flight when the pattern
				// breaks are held, so each is flushed.
				tap.hold(3*frag, 7*frag)
				for i := range 3 {
					wantRead(t, h, file, frag, int64(i*frag), frag)
				}
				wantRead(t, h, file, frag, 16*frag, frag)
				// The resumed scan's tail past the short fragment
				// is held the same way.
				tap.hold(20*frag, never)
				wantRead(t, h, file, frag, 17*frag, frag)
				wantRead(t, h, file, frag, 18*frag, frag)
				wantRead(t, h, file, frag, 19*frag, 3000)
				wantRead(t, h, file, frag, 19*frag+3000, 0)
			}},
		{"file profile, 5000-byte scan: the partly read head counts against the readahead depth, to EOF", FileConfig(), 5*frag + 1000, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				// Every fragment past EOF is held; the probe at
				// EOF itself is not.
				tap.hold(5*frag+1001, never)
				off := int64(0)
				for range 8 {
					wantRead(t, h, file, 5000, off, 5000)
					off += 5000
				}
				wantRead(t, h, file, 5000, off, 1960)
				wantRead(t, h, file, 5000, off+1960, 0)
			}},
		{"file profile, 40 KiB in 3 KiB writes, read barrier, close", FileConfig(), 0, vfs.ORDWR,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				data := testPattern(40 << 10)
				for off := 0; off < len(data); off += 3 << 10 {
					end := min(off+3<<10, len(data))
					if n, err := h.Write(data[off:end], int64(off)); err != nil || n != end-off {
						t.Fatalf("write at %d = %d, %v", off, n, err)
					}
				}
				wantRead(t, h, data, frag, 0, frag)
			}},
		{"file profile, write-behind past its window, a write out of sequence, a write under readahead", FileConfig(), 16 * frag, vfs.ORDWR,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				wantWrite := func(p []byte, off int64) {
					t.Helper()
					if n, err := h.Write(p, off); err != nil || n != len(p) {
						t.Fatalf("write %d at %d = %d, %v", len(p), off, n, err)
					}
				}
				// Twelve fragments, rewriting the file with its own
				// bytes: the ninth to ride behind finds eight in
				// flight and reaps the oldest first.
				for i := range int64(12) {
					wantWrite(file[i*frag:(i+1)*frag], i*frag)
				}
				wantWrite(make([]byte, 100), 25*frag) // out of sequence: a barrier
				wantWrite(make([]byte, 100), 25*frag+100)
				tap.hold(2*frag, never)
				wantRead(t, h, file, frag, 0, frag) // a barrier again
				wantRead(t, h, file, frag, frag, frag)
				wantWrite(file[:50], 0) // cancels the four fragments read ahead
			}},
		{"file profile, a fragment read ahead fails", FileConfig(), 10 * frag, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				tap.mu.Lock()
				tap.failAt = 4 * frag
				tap.mu.Unlock()
				tap.hold(5*frag, never)
				for i := range int64(4) {
					wantRead(t, h, file, frag, i*frag, frag)
				}
				// The failed fragment is reaped with three more in
				// flight behind it; the reader asks again and is
				// served directly.
				if n, err := h.Read(make([]byte, frag), 4*frag); n != 0 || err == nil || err.Error() != errScripted.Error() {
					t.Fatalf("read of the failed fragment = %d, %v", n, err)
				}
				tap.hold(0, 0)
				wantRead(t, h, file, frag, 4*frag, frag)
			}},
		{"file profile, sequential 64 KiB reads: the request's missing fragments go out before the first reap, the top-up before the last", FileConfig(), 48 * frag, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				wantRead(t, h, file, 8*frag, 0, 8*frag)
				wantRead(t, h, file, 8*frag, 8*frag, 8*frag)
				// Four fragments are read ahead. Their replies wait
				// until the first fragment the request still lacks has
				// been asked for.
				tap.gate(16*frag, 20*frag, 20*frag)
				wantRead(t, h, file, 8*frag, 16*frag, 8*frag)
				// The reply to the request's last fragment waits
				// until the readahead has been topped up past it.
				tap.gate(31*frag, 32*frag, 32*frag)
				tap.hold(40*frag, never)
				wantRead(t, h, file, 8*frag, 24*frag, 8*frag)
				wantRead(t, h, file, 8*frag, 32*frag, 8*frag)
			}},
		{"file profile at client window 2, sequential 64 KiB reads: the readahead stays four deep", func() Config {
			cfg := FileConfig()
			cfg.Client.Window = 2
			return cfg
		}(), 48 * frag, vfs.OREAD,
			func(t *testing.T, tap *wireTap, h vfs.Handle, file []byte) {
				wantRead(t, h, file, 8*frag, 0, 8*frag)
				wantRead(t, h, file, 8*frag, 8*frag, 8*frag)
				// The second fragment read ahead is not answered
				// until the first has been used up and replaced.
				tap.gate(17*frag, 18*frag, 20*frag)
				tap.hold(24*frag, never)
				wantRead(t, h, file, 8*frag, 16*frag, 8*frag)
			}},
	}
	var got strings.Builder
	for _, sc := range scenarios {
		file := testPattern(sc.size)
		fs := ramfs.New("srv")
		fs.WriteFile("f", file, 0664)
		a, b := ninep.NewPipe()
		go ninep.Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil })
		tap := newWireTap(a)
		root, cl, err := MountConfig(tap, "glenda", "", sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, err := root.Walk("f")
		if err != nil {
			t.Fatal(err)
		}
		tap.mu.Lock()
		tap.lines = nil // the trace starts at the open
		tap.mu.Unlock()
		before := StatsGroup().Snapshot()
		h, err := n.Open(sc.mode)
		if err != nil {
			t.Fatal(err)
		}
		stuck := time.AfterFunc(10*time.Second, func() {
			panic(sc.name + ": the driver waits for a reply gated behind a request it has not sent")
		})
		sc.script(t, tap, h, file)
		stuck.Stop()
		if err := h.Close(); err != nil {
			t.Fatalf("%s: close: %v", sc.name, err)
		}
		tap.mu.Lock()
		fmt.Fprintf(&got, "# %s\n%s\n", sc.name, strings.Join(tap.lines, "\n"))
		tap.mu.Unlock()
		after := StatsGroup().Snapshot()
		for _, k := range []string{"ra-hits", "ra-misses", "ra-cancels", "ra-issued", "wb-issued", "wb-barriers"} {
			fmt.Fprintf(&got, "%s +%d\n", k, after[k]-before[k])
		}
		got.WriteByte('\n')
		// A collected node clunks its fid from a finalizer; keep both
		// alive so that Tclunk cannot land inside the trace.
		runtime.KeepAlive(root)
		runtime.KeepAlive(n)
		cl.Close()
	}
	const golden = "testdata/wire_trace.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("wire trace moved at line %d of %s:\n got %q\nwant %q\nfull trace:\n%s",
				i+1, golden, append(gl, "<end>")[min(i, len(gl))], append(wl, "<end>")[min(i, len(wl))], got.String())
		}
	}
}

// wantRead reads n bytes at off and checks the count and the bytes
// against the served file.
func wantRead(t *testing.T, h vfs.Handle, file []byte, n int, off int64, want int) {
	t.Helper()
	buf := make([]byte, n)
	got, err := h.Read(buf, off)
	if err != nil || got != want {
		t.Fatalf("read %d at %d = %d, %v; want %d", n, off, got, err, want)
	}
	if !bytes.Equal(buf[:got], file[off:off+int64(got)]) {
		t.Fatalf("read %d at %d returned the wrong bytes", n, off)
	}
}
