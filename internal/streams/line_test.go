package streams

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/medium"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// TestLineConversation runs a full-duplex conversation between two
// Lines over a byte pipe, both ends dressed with the production stack
// (compress near the device, batch on top), and checks that every
// message crosses intact, in order, with its boundary preserved.
func TestLineConversation(t *testing.T) {
	c1, c2 := net.Pipe()
	l1 := NewLine(c1, vclock.Real, 0)
	l2 := NewLine(c2, vclock.Real, 0)
	if err := l1.Push("compress", "batch 256 500us"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Push("compress", "batch 256 500us"); err != nil {
		t.Fatal(err)
	}
	const nmsg = 120
	mkmsg := func(dir string, i int) []byte {
		m := []byte(fmt.Sprintf("%s-%04d ", dir, i))
		return append(m, bytes.Repeat([]byte("payload "), i%5)...)
	}
	var wg sync.WaitGroup
	send := func(l *Line, dir string) {
		defer wg.Done()
		for i := 0; i < nmsg; i++ {
			if _, err := l.Write(mkmsg(dir, i)); err != nil {
				t.Errorf("%s write %d: %v", dir, i, err)
				return
			}
		}
	}
	recv := func(l *Line, dir string) {
		defer wg.Done()
		buf := make([]byte, 4096)
		for i := 0; i < nmsg; i++ {
			n, err := l.Read(buf)
			if err != nil {
				t.Errorf("%s read %d: %v", dir, i, err)
				return
			}
			if want := mkmsg(dir, i); !bytes.Equal(buf[:n], want) {
				t.Errorf("%s msg %d: got %q want %q", dir, i, buf[:n], want)
				return
			}
		}
	}
	wg.Add(4)
	go send(l1, "a2b")
	go recv(l2, "a2b")
	go send(l2, "b2a")
	go recv(l1, "b2a")
	wg.Wait()

	// The stats file text must parse back to the live counters.
	text := l1.StatsText()
	parsed := obs.ParseStats(text)
	if parsed["batch-msgs-in"] != nmsg {
		t.Fatalf("stats text reports %d msgs in:\n%s", parsed["batch-msgs-in"], text)
	}
	if parsed["compress-saved-bytes"]+parsed["compress-wire-bytes"] != parsed["compress-bytes-in"] {
		t.Fatalf("stats identity broken in rendered text:\n%s", text)
	}
	if got := l1.Stream().Modules(); len(got) != 2 || got[0] != "batch" || got[1] != "compress" {
		t.Fatalf("module stack: %v", got)
	}
	l1.Close()
	l2.Close()
}

// TestLineCloseMidWindow closes a Line with a message still coalescing;
// the close must flush it out the transport, and the peer must read it
// before seeing EOF — the "hangup mid-batch-window" contract at the
// Line layer.
func TestLineCloseMidWindow(t *testing.T) {
	c1, c2 := net.Pipe()
	l1 := NewLine(c1, vclock.Real, 0)
	l2 := NewLine(c2, vclock.Real, 0)
	for _, l := range []*Line{l1, l2} {
		if err := l.Push("batch 65536 1h"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		n, err := l2.Read(buf)
		if err != nil || string(buf[:n]) != "going down" {
			t.Errorf("read %q, %v", buf[:n], err)
		}
		if _, err := l2.Read(buf); err == nil {
			t.Error("no EOF after peer close")
		}
	}()
	if _, err := l1.Write([]byte("going down")); err != nil {
		t.Fatal(err)
	}
	// Nothing can have hit the wire yet: the window is 64K with an
	// hour's delay. Close must drain it.
	l1.Close()
	<-done
	l2.Close()
}

// recordConn is a transport that records each write and whose reads
// wait for Close.
type recordConn struct {
	mu     sync.Mutex
	wrote  []string
	closed chan struct{}
	once   sync.Once
}

func (c *recordConn) Read([]byte) (int, error) { <-c.closed; return 0, io.EOF }
func (c *recordConn) Close() error             { c.once.Do(func() { close(c.closed) }); return nil }
func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrote = append(c.wrote, string(p))
	return len(p), nil
}

// TestLineDeviceEndFreesControlBlocks sends a control message that no
// module absorbs: it reaches the Line's device end, which writes
// nothing for it and frees it (the package's leak gate counts the
// block), and the data message after it crosses alone.
func TestLineDeviceEndFreesControlBlocks(t *testing.T) {
	conn := &recordConn{closed: make(chan struct{})}
	l := NewLine(conn, vclock.Real, 0)
	if err := l.WriteCtl("module-specific"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.wrote) != 1 || conn.wrote[0] != "data" {
		t.Fatalf("transport saw writes %q, want just \"data\"", conn.wrote)
	}
}

// duplexConn is a medium.Duplex — an in-memory link that queues what
// is sent, as every real transport here queues at least a window — in
// the shape NewLine wraps. Messages are far shorter than a pump read.
type duplexConn struct{ *medium.Duplex }

func (c duplexConn) Write(p []byte) (int, error) { return len(p), c.Send(p) }
func (c duplexConn) Close() error                { c.Duplex.Close(); return nil }
func (c duplexConn) Read(p []byte) (int, error) {
	m, err := c.Recv()
	return copy(p, m), err
}

// TestPushPopMidTraffic churns transparent modules on and off both
// ends of a live conversation while full-duplex traffic flows. Pushing
// mid-traffic is the hard case: the splice happens between two blocks
// of a put chain arriving from the peer, so a half-initialized module
// (or a dropped/reordered block crossing the splice) shows up as a
// sequence error here. Pops exercise the Drain path under load the
// same way.
func TestPushPopMidTraffic(t *testing.T) {
	// A queued link, not net.Pipe: a rendezvous write completes only
	// when the peer's pump reads, and the pump can be parked at
	// DeviceUp behind a waiting push — see chainLock.
	d1, d2 := medium.NewDuplex(medium.Profile{})
	l1 := NewLine(duplexConn{d1}, vclock.Real, 0)
	l2 := NewLine(duplexConn{d2}, vclock.Real, 0)
	// frame restores boundaries over the byte pipe; it stays put while
	// trace churns above it.
	for _, l := range []*Line{l1, l2} {
		if err := l.Push("frame"); err != nil {
			t.Fatal(err)
		}
	}
	const nmsg = 400
	mkmsg := func(dir string, i int) []byte {
		return []byte(fmt.Sprintf("%s-%05d-%s", dir, i, bytes.Repeat([]byte("x"), i%97)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	churn := func(l *Line) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Push("trace"); err != nil {
				t.Errorf("push trace: %v", err)
				return
			}
			if err := l.Stream().WriteCtl("pop"); err != nil {
				t.Errorf("pop trace: %v", err)
				return
			}
		}
	}
	send := func(l *Line, dir string) {
		defer wg.Done()
		for i := 0; i < nmsg; i++ {
			if _, err := l.Write(mkmsg(dir, i)); err != nil {
				t.Errorf("%s write %d: %v", dir, i, err)
				return
			}
		}
	}
	recv := func(l *Line, dir string) {
		defer wg.Done()
		buf := make([]byte, 4096)
		for i := 0; i < nmsg; i++ {
			n, err := l.Read(buf)
			if err != nil {
				t.Errorf("%s read %d: %v", dir, i, err)
				return
			}
			if want := mkmsg(dir, i); !bytes.Equal(buf[:n], want) {
				t.Errorf("%s msg %d: got %q want %q", dir, i, buf[:n], want)
				return
			}
		}
	}
	var churners sync.WaitGroup
	churners.Add(2)
	go func() { defer churners.Done(); churn(l1) }()
	go func() { defer churners.Done(); churn(l2) }()
	wg.Add(4)
	go send(l1, "a2b")
	go recv(l2, "a2b")
	go send(l2, "b2a")
	go recv(l1, "b2a")
	wg.Wait()
	close(stop)
	churners.Wait()
	if mods := l1.Stream().Modules(); len(mods) < 1 || mods[len(mods)-1] != "frame" {
		t.Fatalf("frame module lost under churn: %v", mods)
	}
	l1.Close()
	l2.Close()
}
