package cyclone

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/xport"
)

func TestFramedMessagesAcrossLink(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, eb := l.Ends()
	ca, _ := ea.NewConn()
	cb, _ := eb.NewConn()
	if err := ca.Connect(""); err != nil {
		t.Fatal(err)
	}
	if err := cb.Connect(""); err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	defer cb.Close()
	ca.Write([]byte("across the fiber"))
	ca.Write([]byte("second frame"))
	buf := make([]byte, 256)
	n, err := cb.Read(buf)
	if err != nil || string(buf[:n]) != "across the fiber" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	n, _ = cb.Read(buf)
	if string(buf[:n]) != "second frame" {
		t.Errorf("delimiters lost: %q", buf[:n])
	}
	// And the reverse direction.
	cb.Write([]byte("return"))
	n, _ = ca.Read(buf)
	if string(buf[:n]) != "return" {
		t.Errorf("reverse read %q", buf[:n])
	}
}

func TestLargeMessage(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, eb := l.Ends()
	ca, _ := ea.NewConn()
	cb, _ := eb.NewConn()
	ca.Connect("")
	cb.Connect("")
	msg := bytes.Repeat([]byte("c"), 48*1024)
	ca.Write(msg)
	got := make([]byte, 64*1024)
	n, err := cb.Read(got)
	if err != nil || n != len(msg) {
		t.Fatalf("large frame: %d bytes, %v", n, err)
	}
}

// TestShortReadsKeepTheTail reads a 16 KiB message through the 8 KiB
// buffer ServeEcho uses: every byte must arrive, in order, over as many
// reads as it takes, and a read must still stop at the message
// boundary rather than run on into the next frame.
func TestShortReadsKeepTheTail(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, eb := l.Ends()
	ca, _ := ea.NewConn()
	cb, _ := eb.NewConn()
	ca.Connect("")
	cb.Connect("")
	msg := make([]byte, 16*1024)
	for i := range msg {
		msg[i] = byte(i * 7 / 5)
	}
	ca.Write(msg)
	ca.Write([]byte("next frame"))
	buf := make([]byte, 8*1024)
	var got []byte
	for range 2 {
		n, err := cb.Read(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("short read: %d bytes, %v", n, err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("16 KiB message came back changed through 8 KiB reads")
	}
	if n, err := cb.Read(buf); err != nil || string(buf[:n]) != "next frame" {
		t.Errorf("read after the tail: %q, %v", buf[:n], err)
	}
}

func TestSingleConversation(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, _ := l.Ends()
	c1, _ := ea.NewConn()
	if err := c1.Connect(""); err != nil {
		t.Fatal(err)
	}
	c2, _ := ea.NewConn()
	if err := c2.Connect(""); err != xport.ErrInUse {
		t.Errorf("second conversation on a point-to-point link = %v", err)
	}
	c1.Close()
	if err := c2.Connect(""); err != nil {
		t.Errorf("after release: %v", err)
	}
	c2.Close()
}

func TestReadAfterCloseFails(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, _ := l.Ends()
	c, _ := ea.NewConn()
	c.Connect("")
	c.Close()
	if _, err := c.Read(make([]byte, 8)); err == nil {
		t.Error("read on closed conversation succeeded")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write on closed conversation succeeded")
	}
}

func TestProfilePacing(t *testing.T) {
	// 1 MB/s bandwidth: a 100 KB frame takes ~100ms to serialize.
	l := NewLink("cyc0", medium.Profile{Bandwidth: 1 << 20, MTU: 1 << 20})
	defer l.Close()
	ea, eb := l.Ends()
	ca, _ := ea.NewConn()
	cb, _ := eb.NewConn()
	ca.Connect("")
	cb.Connect("")
	start := time.Now()
	go ca.Write(make([]byte, 100*1024))
	buf := make([]byte, 200*1024)
	cb.Read(buf)
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("100KB at 1MB/s took only %v", el)
	}
}

func TestListenSerializesConversations(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, eb := l.Ends()
	lc, _ := ea.NewConn()
	if _, err := lc.Listen(); err != xport.ErrNotAnnounced {
		t.Fatalf("listen before announce = %v", err)
	}
	if err := lc.Announce(""); err != nil {
		t.Fatal(err)
	}
	first, err := lc.Listen()
	if err != nil {
		t.Fatal(err)
	}
	// A second Listen blocks while the first conversation holds the
	// wire, and returns once it closes.
	got := make(chan xport.Conn, 1)
	go func() {
		nc, err := lc.Listen()
		if err == nil {
			got <- nc
		}
	}()
	select {
	case <-got:
		t.Fatal("second listen returned while wire held")
	case <-time.After(50 * time.Millisecond):
	}
	first.Close()
	select {
	case nc := <-got:
		nc.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("second listen never returned after release")
	}
	_ = eb
}

func TestStatusAndAddrs(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, _ := l.Ends()
	c, _ := ea.NewConn()
	if c.Status() != "Closed" {
		t.Errorf("fresh status %q", c.Status())
	}
	c.Connect("")
	if c.Status() != "Established" {
		t.Errorf("connected status %q", c.Status())
	}
	if c.LocalAddr() == "" || c.RemoteAddr() == "" {
		t.Error("empty addresses")
	}
	c.Close()
	if c.Status() != "Closed" {
		t.Errorf("closed status %q", c.Status())
	}
	if err := c.Connect(""); err == nil {
		t.Error("connect on closed conversation succeeded")
	}
	if err := c.Announce(""); err == nil {
		t.Error("announce on closed conversation succeeded")
	}
}

func TestEndName(t *testing.T) {
	l := NewLink("cyc0", medium.Profile{})
	defer l.Close()
	ea, _ := l.Ends()
	if ea.Name() != "cyc" {
		t.Errorf("device name %q", ea.Name())
	}
}

// TestConcurrentListenClose is the regression test for the lock-order
// inversion netvet caught: Close used to take e.mu while holding c.mu,
// while Listen holds e.mu and polls isClosed (c.mu) — a deadlock when
// a blocked listener and a closing conversation race. Hammer the pair
// under a watchdog.
func TestConcurrentListenClose(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			l := NewLink("cyc0", medium.Profile{})
			ea, _ := l.Ends()
			holder, _ := ea.NewConn()
			holder.Connect("") // wire busy: Listen will park on the cond
			lc, _ := ea.NewConn()
			lc.Announce("")
			listened := make(chan struct{})
			go func() {
				if nc, err := lc.Listen(); err == nil {
					nc.Close()
				}
				close(listened)
			}()
			closed := make(chan struct{})
			go func() {
				lc.Close() // old code: e.mu under c.mu — deadlock window
				close(closed)
			}()
			holder.Close() // frees the wire, broadcasts the cond
			<-listened
			<-closed
			l.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: concurrent Listen+Close never finished")
	}
}
