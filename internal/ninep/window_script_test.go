package ninep

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/vfs"
)

// scriptConn sits between a client and its countingConn and bends the
// wire to a script, so a test can put the window in a known state
// whatever the server's pace: it fails one Tread's send, loses the
// replies to a speculative tail (a server too slow to answer before the
// fragments are given up), delivers Rreads in reversed batches, and
// holds every Rflush back until a number of Tflushes are on the wire.
// log is the wire as the client saw it: what it sent and what it was
// handed, in order.
type scriptConn struct {
	MsgConn

	failAt    int64 // the Tread at this offset fails to send; -1 never
	holdFrom  int64 // replies to Treads at or past this offset are lost; -1 none
	reverse   int   // hand Rreads over in reversed batches of this many; 0 in order
	flushGate int   // hand no Rflush over until this many Tflushes are sent

	mu       sync.Mutex
	gate     sync.Cond
	closed   bool
	log      []string
	held     map[uint16]bool
	stash    [][]byte // Rreads waiting for their batch to fill
	ready    [][]byte // a reversed batch being handed over
	tflushes int
	out      int // Treads sent whose Rread is not yet handed over
	maxOut   int
}

var errScripted = errors.New("scripted send failure")

func newScriptConn(c MsgConn) *scriptConn {
	s := &scriptConn{MsgConn: c, failAt: -1, holdFrom: -1, held: make(map[uint16]bool)}
	s.gate.L = &s.mu
	return s
}

func (s *scriptConn) WriteMsg(p []byte) error {
	f, err := UnmarshalFcall(p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	switch f.Type {
	case Tread:
		if f.Offset == s.failAt {
			s.mu.Unlock()
			block.PutBytes(p)
			return errScripted
		}
		s.log = append(s.log, fmt.Sprintf("Tread %d", f.Offset/MaxFData))
		s.held[f.Tag] = s.holdFrom >= 0 && f.Offset >= s.holdFrom
		s.out++
		s.maxOut = max(s.maxOut, s.out)
	case Tflush:
		s.log = append(s.log, "Tflush")
		s.tflushes++
		s.gate.Broadcast()
	}
	s.mu.Unlock()
	return s.MsgConn.WriteMsg(p)
}

func (s *scriptConn) ReadMsg() ([]byte, error) {
	for {
		s.mu.Lock()
		if len(s.ready) > 0 {
			m := s.ready[0]
			s.ready = s.ready[1:]
			s.out--
			s.log = append(s.log, "Rread")
			s.mu.Unlock()
			return m, nil
		}
		s.mu.Unlock()
		m, err := s.MsgConn.ReadMsg()
		if err != nil {
			return nil, err
		}
		f, err := UnmarshalFcall(m)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		switch {
		case f.Type == Rread && s.held[f.Tag]:
			s.mu.Unlock()
			block.PutBytes(m)
			continue
		case f.Type == Rread:
			s.stash = append(s.stash, m)
			if len(s.stash) >= s.reverse {
				for i := len(s.stash) - 1; i >= 0; i-- {
					s.ready = append(s.ready, s.stash[i])
				}
				s.stash = nil
			}
			s.mu.Unlock()
			continue
		case f.Type == Rflush:
			for s.tflushes < s.flushGate && !s.closed {
				s.gate.Wait()
			}
			s.log = append(s.log, "Rflush")
		}
		s.mu.Unlock()
		return m, nil
	}
}

func (s *scriptConn) Close() error {
	s.mu.Lock()
	s.closed = true
	s.gate.Broadcast()
	s.mu.Unlock()
	return s.MsgConn.Close()
}

// TestWindowTransfer drives Fid.Read — one transfer loop over one
// Window — through the window's cases: depth 1 is the serial trace;
// depth 4 keeps four Treads out and reassembles in offset order
// whatever order the replies come in; a short reply cancels the tail in
// one batch of Tflushes; a send failure mid-window drains what was
// issued.
func TestWindowTransfer(t *testing.T) {
	const frag = MaxFData
	cases := []struct {
		name   string
		cfg    ClientConfig
		size   int // of the served file
		ask    int // len(p)
		script func(*scriptConn)

		want    int
		wantErr error
		// wantLog is the wire the client must have seen. When a reply
		// is handed over relative to the sends around it is the
		// server's pace, not the window's doing, except at depth 1;
		// only there are the Rreads part of the pinned trace.
		wantLog []string
		rreads  bool
		maxOut  int // Treads out at once, at most
	}{
		{name: "depth 1 issues fragment n+1 only after reply n",
			cfg: ClientConfig{}, size: 3 * frag, ask: 3 * frag,
			script:  func(*scriptConn) {},
			want:    3 * frag,
			wantLog: []string{"Tread 0", "Rread", "Tread 1", "Rread", "Tread 2", "Rread"},
			rreads:  true,
			maxOut:  1},
		// The batch of four Rreads only fills — and the read only
		// finishes — if four Treads are out at once.
		{name: "depth 4 keeps four out and reassembles replies that arrive in reverse",
			cfg: ClientConfig{FileTree: true, Window: 4}, size: 8 * frag, ask: 8 * frag,
			script: func(s *scriptConn) { s.reverse = 4 },
			want:   8 * frag,
			wantLog: []string{
				"Tread 0", "Tread 1", "Tread 2", "Tread 3",
				"Tread 4", "Tread 5", "Tread 6", "Tread 7",
			},
			maxOut: 4},
		// The three fragments past the short one are still out when it
		// is reaped, and no Rflush comes back until all three Tflushes
		// are sent: a driver that awaited each Rflush in turn would
		// hang here.
		{name: "a short reply cancels the tail, every Tflush sent before the first Rflush is awaited",
			cfg: ClientConfig{FileTree: true, Window: 4}, size: 100, ask: 4 * frag,
			script: func(s *scriptConn) { s.holdFrom = frag; s.flushGate = 3 },
			want:   100,
			wantLog: []string{
				"Tread 0", "Tread 1", "Tread 2", "Tread 3",
				"Tflush", "Tflush", "Tflush", "Rflush", "Rflush", "Rflush",
			},
			maxOut: 4},
		{name: "a send failure mid-window drains what was issued, in order, and flushes nothing",
			cfg: ClientConfig{FileTree: true, Window: 4}, size: 8 * frag, ask: 8 * frag,
			script:  func(s *scriptConn) { s.failAt = 2 * frag },
			want:    2 * frag,
			wantErr: errScripted,
			wantLog: []string{"Tread 0", "Tread 1"},
			maxOut:  2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			content := pattern(tc.size)
			var sc *scriptConn
			cl, _, fs := startCountingServer(t, tc.cfg, func(c MsgConn) MsgConn {
				sc = newScriptConn(c)
				return sc
			})
			fs.WriteFile("f", content, 0664)
			f := openFile(t, cl, "f", vfs.OREAD)
			sc.mu.Lock()
			tc.script(sc)
			sc.mu.Unlock()

			type result struct {
				n   int
				err error
			}
			buf := make([]byte, tc.ask)
			done := make(chan result, 1)
			go func() {
				n, err := f.Read(buf, 0)
				done <- result{n, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("read hung")
			}
			if res.n != tc.want || !errors.Is(res.err, tc.wantErr) {
				t.Fatalf("read = %d, %v; want %d, %v", res.n, res.err, tc.want, tc.wantErr)
			}
			if !bytes.Equal(buf[:res.n], content[:res.n]) {
				t.Fatal("fragments reassembled out of offset order")
			}
			sc.mu.Lock()
			defer sc.mu.Unlock()
			var log []string
			for _, e := range sc.log {
				if e != "Rread" || tc.rreads {
					log = append(log, e)
				}
			}
			if !reflect.DeepEqual(log, tc.wantLog) {
				t.Fatalf("wire:\n got %q\nwant %q", log, tc.wantLog)
			}
			if sc.maxOut > tc.maxOut {
				t.Fatalf("%d Treads out at once, want at most %d", sc.maxOut, tc.maxOut)
			}
		})
	}
}

// TestWindowCancelEmpty: cancelling a window with nothing in flight
// puts nothing on the wire, before any fragment and after the last.
func TestWindowCancelEmpty(t *testing.T) {
	cl, cc, fs := startCountingServer(t, ClientConfig{}, nil)
	fs.WriteFile("f", pattern(100), 0664)
	f := openFile(t, cl, "f", vfs.OREAD)
	sent := func() (n int64) {
		for typ := range cc.counts {
			n += cc.counts[typ].Load()
		}
		return n
	}
	w := f.NewWindow()
	before := sent()
	w.Cancel()
	if got := sent() - before; got != 0 {
		t.Fatalf("Cancel on a fresh window sent %d messages", got)
	}
	if err := w.Read(0, 100); err != nil {
		t.Fatal(err)
	}
	if data, n, short, err := w.Reap(); err != nil || n != 100 || short || len(data) != 100 {
		t.Fatalf("reap = %d bytes, n %d, short %v, %v", len(data), n, short, err)
	}
	before = sent()
	w.Cancel()
	if got := sent() - before; got != 0 || w.Len() != 0 {
		t.Fatalf("Cancel on a drained window sent %d messages, Len %d", got, w.Len())
	}
}
