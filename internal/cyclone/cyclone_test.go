package cyclone

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// onLink runs body on a fresh virtual clock with a link of profile p
// paced by it, and closes the link when body returns. body runs off the
// test's goroutine, so it reports with t.Error and returns.
func onLink(t *testing.T, p medium.Profile, body func(v *vclock.Virtual, l *Link)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		p.Clock = v
		l := NewLink("cyc0", p)
		defer l.Close()
		body(v, l)
	})
}

func TestFramedMessagesAcrossLink(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
		ea, eb := l.Ends()
		ca, _ := ea.NewConn()
		cb, _ := eb.NewConn()
		if err := ca.Connect(""); err != nil {
			t.Error(err)
			return
		}
		if err := cb.Connect(""); err != nil {
			t.Error(err)
			return
		}
		defer ca.Close()
		defer cb.Close()
		ca.Write([]byte("across the fiber"))
		ca.Write([]byte("second frame"))
		buf := make([]byte, 256)
		n, err := cb.Read(buf)
		if err != nil || string(buf[:n]) != "across the fiber" {
			t.Errorf("read %q, %v", buf[:n], err)
			return
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
	})
}

func TestLargeMessage(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
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
			t.Errorf("large frame: %d bytes, %v", n, err)
		}
	})
}

// TestShortReadsKeepTheTail reads a 16 KiB message through the 8 KiB
// buffer ServeEcho uses: every byte must arrive, in order, over as many
// reads as it takes, and a read must still stop at the message
// boundary rather than run on into the next frame.
func TestShortReadsKeepTheTail(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
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
				t.Errorf("short read: %d bytes, %v", n, err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("16 KiB message came back changed through 8 KiB reads")
		}
		if n, err := cb.Read(buf); err != nil || string(buf[:n]) != "next frame" {
			t.Errorf("read after the tail: %q, %v", buf[:n], err)
		}
	})
}

func TestSingleConversation(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
		ea, _ := l.Ends()
		c1, _ := ea.NewConn()
		if err := c1.Connect(""); err != nil {
			t.Error(err)
			return
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
	})
}

func TestReadAfterCloseFails(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
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
	})
}

// TestProfilePacing: at 1 MiB/s a 100 KiB frame takes exactly its
// serialization time, 100/1024 s, to arrive.
func TestProfilePacing(t *testing.T) {
	onLink(t, medium.Profile{Bandwidth: 1 << 20, MTU: 1 << 20}, func(v *vclock.Virtual, l *Link) {
		ea, eb := l.Ends()
		ca, _ := ea.NewConn()
		cb, _ := eb.NewConn()
		ca.Connect("")
		cb.Connect("")
		start := v.Now()
		v.Go(func() { ca.Write(make([]byte, 100*1024)) })
		buf := make([]byte, 200*1024)
		cb.Read(buf)
		if el, want := v.Since(start), 100*time.Second/1024; el != want {
			t.Errorf("100 KiB at 1 MiB/s took %v, want %v", el, want)
		}
	})
}

func TestListenSerializesConversations(t *testing.T) {
	onLink(t, medium.Profile{}, func(v *vclock.Virtual, l *Link) {
		ea, _ := l.Ends()
		lc, _ := ea.NewConn()
		if _, err := lc.Listen(); err != xport.ErrNotAnnounced {
			t.Errorf("listen before announce = %v", err)
			return
		}
		if err := lc.Announce(""); err != nil {
			t.Error(err)
			return
		}
		first, err := lc.Listen()
		if err != nil {
			t.Error(err)
			return
		}
		// A second Listen blocks while the first conversation holds the
		// wire, and returns as soon as it closes.
		got := vclock.NewMailbox[xport.Conn](v, 1)
		v.Go(func() {
			if nc, err := lc.Listen(); err == nil {
				got.Send(nc)
			}
		})
		v.Sleep(50 * time.Millisecond)
		if nc, ok := got.TryRecv(); ok {
			nc.Close()
			t.Error("second listen returned while wire held")
			return
		}
		first.Close()
		v.Sleep(time.Millisecond)
		nc, ok := got.TryRecv()
		if !ok {
			t.Error("second listen never returned after release")
			lc.Close()
			return
		}
		nc.Close()
	})
}

func TestStatusAndAddrs(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
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
	})
}

func TestEndName(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
		ea, _ := l.Ends()
		if ea.Name() != "cyc" {
			t.Errorf("device name %q", ea.Name())
		}
	})
}

// TestConcurrentListenClose is the gate for lock-order cycles on a
// link: e.mu before c.mu, the order Listen takes them in when it polls
// isClosed with the wire's lock held. A Close that took e.mu still
// holding c.mu would deadlock with a parked listener on the real clock,
// but only when the two meet inside sections a few instructions long.
// Here Listen and Close each take the pair once, in both orders: a
// listener parks on the busy wire and its conversation is then closed,
// and a closed conversation is then listened on. On the virtual clock
// no Lock is ever contended, so nothing can deadlock; a race build
// records the order each Lock class is taken in and panics at the
// first inversion, which fails this test on its first run. Without the
// race detector it checks only what Listen returns.
func TestConcurrentListenClose(t *testing.T) {
	onLink(t, medium.Profile{}, func(v *vclock.Virtual, l *Link) {
		ea, _ := l.Ends()
		holder, _ := ea.NewConn()
		if err := holder.Connect(""); err != nil { // the wire is busy: Listen parks
			t.Error(err)
			return
		}

		lc, _ := ea.NewConn()
		lc.Announce("")
		listened := vclock.NewMailbox[error](v, 1)
		v.Go(func() {
			_, err := lc.Listen()
			listened.Send(err)
		})
		v.Sleep(time.Millisecond) // the listener is parked on the wire
		lc.Close()
		if err, _ := listened.Recv(); err != vfs.ErrHungup {
			t.Errorf("Listen parked before Close returned %v, want %v", err, vfs.ErrHungup)
		}

		lc, _ = ea.NewConn()
		lc.Announce("")
		lc.Close()
		if _, err := lc.Listen(); err != vfs.ErrHungup {
			t.Errorf("Listen after Close returned %v, want %v", err, vfs.ErrHungup)
		}
		// Not deferred: an inversion panics with e.mu held, and a
		// deferred Close would block the panic's unwinding on it.
		holder.Close()
	})
}

// TestAllocsReceive: a message off the fiber goes up the read stream as
// the very buffer the wire delivered. The receive copies nothing and
// draws no buffer from the allocator; the reader's Read is the one
// copy, and it allocates nothing either.
func TestAllocsReceive(t *testing.T) {
	onLink(t, medium.Profile{}, func(_ *vclock.Virtual, l *Link) {
		_, eb := l.Ends()
		cb, _ := eb.NewConn()
		if err := cb.Connect(""); err != nil {
			t.Error(err)
			return
		}
		defer cb.Close()
		buf := make([]byte, 1000)
		read := func() {
			if n, err := cb.Read(buf); err != nil || n != len(buf) {
				t.Errorf("read %d bytes, %v; want %d", n, err, len(buf))
			}
		}
		msg := block.GetBytes(len(buf))
		before := block.Snapshot()
		eb.receive(msg, nil)
		got := block.Snapshot()
		if d := got.BytesCopied - before.BytesCopied; d != 0 {
			t.Errorf("a received message copied %d bytes, want 0", d)
		}
		if dh, dm := got.PoolHits-before.PoolHits, got.PoolMisses-before.PoolMisses; dh != 0 || dm != 0 {
			t.Errorf("a received message drew %d pooled and %d new buffers, want 0 and 0", dh, dm)
		}
		if db, dr := got.InFlight-before.InFlight, got.RawInFlight-before.RawInFlight; db != 1 || dr != -1 {
			t.Errorf("receive moved blocks in flight by %d and raw buffers by %d, want +1 and -1", db, dr)
		}
		read()
		if d := block.Snapshot().InFlight - before.InFlight; d != 0 {
			t.Errorf("%d block(s) still in flight after the read", d)
		}
		if block.RaceEnabled {
			return // race instrumentation allocates
		}
		if allocs := testing.AllocsPerRun(100, func() {
			eb.receive(block.GetBytes(len(buf)), nil)
			read()
		}); allocs != 0 {
			t.Errorf("receive and read allocate %.1f objects per message, want 0", allocs)
		}
	})
}
