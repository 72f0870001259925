package ether

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

func newSeg(t *testing.T, p Profile) *Segment {
	t.Helper()
	seg := NewSegment("ether0", p)
	t.Cleanup(seg.Close)
	return seg
}

func TestAddrString(t *testing.T) {
	a := Addr{0x08, 0x00, 0x69, 0x02, 0x22, 0xf0}
	if a.String() != "0800690222f0" {
		t.Errorf("Addr.String = %q", a)
	}
}

func TestUnicastDelivery(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("ether0")
	i2 := seg.NewInterface("ether0")
	c1, _ := i1.OpenConn()
	c2, _ := i2.OpenConn()
	c1.SetType(0x800)
	c2.SetType(0x800)
	defer c1.Close()
	defer c2.Close()

	if err := c1.Transmit(i2.Addr(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n := mustRead(t, c2, buf)
	if n < HdrLen || string(buf[HdrLen:n]) != "payload" {
		t.Fatalf("received %q", buf[:n])
	}
	// Header carries dst, src, type.
	var dst, src Addr
	copy(dst[:], buf[0:6])
	copy(src[:], buf[6:12])
	if dst != i2.Addr() || src != i1.Addr() {
		t.Errorf("header dst=%s src=%s", dst, src)
	}
	if et := int(buf[12])<<8 | int(buf[13]); et != 0x800 {
		t.Errorf("header type %#x", et)
	}
}

func mustRead(t *testing.T, c *Conn, buf []byte) int {
	t.Helper()
	type res struct {
		n   int
		err error
	}
	ch := make(chan res, 1)
	go func() {
		n, err := c.Read(buf)
		ch <- res{n, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.n
	case <-time.After(2 * time.Second):
		t.Fatal("read timed out")
		return 0
	}
}

func TestTypeFiltering(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	cIP, _ := i2.OpenConn()
	cIP.SetType(0x800)
	cARP, _ := i2.OpenConn()
	cARP.SetType(0x806)
	defer cIP.Close()
	defer cARP.Close()

	tx, _ := i1.OpenConn()
	defer tx.Close()
	tx.SetType(0x806)
	tx.Transmit(i2.Addr(), []byte("arp"))
	buf := make([]byte, 256)
	n := mustRead(t, cARP, buf)
	if string(buf[HdrLen:n]) != "arp" {
		t.Fatalf("arp conn got %q", buf[HdrLen:n])
	}
	// The IP conversation must not have received it.
	if got := cIP.Stream().QueuedBytes(); got != 0 {
		t.Errorf("ip conn queued %d bytes of arp traffic", got)
	}
}

func TestCopyToAllMatchingConversations(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	a, _ := i2.OpenConn()
	b, _ := i2.OpenConn()
	a.SetType(0x800)
	b.SetType(0x800)
	defer a.Close()
	defer b.Close()
	tx, _ := i1.OpenConn()
	defer tx.Close()
	tx.SetType(0x800)
	tx.Transmit(i2.Addr(), []byte("dup"))
	buf := make([]byte, 256)
	if n := mustRead(t, a, buf); string(buf[HdrLen:n]) != "dup" {
		t.Error("first conversation missed its copy")
	}
	if n := mustRead(t, b, buf); string(buf[HdrLen:n]) != "dup" {
		t.Error("second conversation missed its copy")
	}
}

func TestTypeAllAndPromiscuous(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	i3 := seg.NewInterface("e") // the snooper
	all, _ := i3.OpenConn()
	all.SetType(TypeAll)
	all.SetPromiscuous(true)
	defer all.Close()

	tx, _ := i1.OpenConn()
	defer tx.Close()
	tx.SetType(0x1234)
	tx.Transmit(i2.Addr(), []byte("sniffed")) // not addressed to i3
	buf := make([]byte, 256)
	n := mustRead(t, all, buf)
	if string(buf[HdrLen:n]) != "sniffed" {
		t.Errorf("promiscuous conversation got %q", buf[HdrLen:n])
	}
	// Type -1 without promiscuous sees only frames addressed to us.
	only, _ := i3.OpenConn()
	only.SetType(TypeAll)
	defer only.Close()
	tx.Transmit(i2.Addr(), []byte("not-для-нас"))
	time.Sleep(10 * time.Millisecond)
	if only.Stream().QueuedBytes() != 0 {
		t.Error("type -1 conversation received a frame addressed elsewhere")
	}
	tx.Transmit(Broadcast, []byte("bcast"))
	n = mustRead(t, only, buf)
	if string(buf[HdrLen:n]) != "bcast" {
		t.Errorf("broadcast not seen by type -1: %q", buf[HdrLen:n])
	}
}

func TestMTUEnforced(t *testing.T) {
	seg := newSeg(t, Profile{MTU: 64})
	i1 := seg.NewInterface("e")
	c, _ := i1.OpenConn()
	defer c.Close()
	c.SetType(1)
	if err := c.Transmit(Broadcast, make([]byte, 65)); err == nil {
		t.Error("over-MTU transmit accepted")
	}
	if err := c.Transmit(Broadcast, make([]byte, 64)); err != nil {
		t.Errorf("at-MTU transmit rejected: %v", err)
	}
}

func TestLossProfileDropsFrames(t *testing.T) {
	seg := newSeg(t, Profile{Loss: 1.0, Seed: 42, Bandwidth: 1 << 30})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	rx, _ := i2.OpenConn()
	rx.SetType(1)
	defer rx.Close()
	tx, _ := i1.OpenConn()
	tx.SetType(1)
	defer tx.Close()
	for range 10 {
		tx.Transmit(i2.Addr(), []byte("gone"))
	}
	time.Sleep(30 * time.Millisecond)
	if rx.Stream().QueuedBytes() != 0 {
		t.Error("frames survived a loss=1.0 medium")
	}
}

func TestLatencyProfileDelays(t *testing.T) {
	seg := newSeg(t, Profile{Latency: 30 * time.Millisecond, Bandwidth: 1 << 30})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	rx, _ := i2.OpenConn()
	rx.SetType(1)
	defer rx.Close()
	tx, _ := i1.OpenConn()
	tx.SetType(1)
	defer tx.Close()
	start := time.Now()
	tx.Transmit(i2.Addr(), []byte("slow"))
	buf := make([]byte, 128)
	mustRead(t, rx, buf)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("frame arrived after %v, want >= ~30ms", el)
	}
}

// The paced wire fans a frame out the way the ideal one does: one
// wrapper over the detached bytes, shared by reference count, however
// many stations hear it — not one wrapper per station.
func TestPacedFanOutSharesOneBlock(t *testing.T) {
	seg := newSeg(t, Profile{Latency: time.Millisecond, Bandwidth: 1 << 30})
	var ifcs []*Interface
	for i := 0; i < 4; i++ {
		ifcs = append(ifcs, seg.NewInterface("e"))
	}
	tx, _ := ifcs[0].OpenConn()
	tx.SetType(1)
	defer tx.Close()
	before := block.Snapshot()
	if err := tx.Transmit(Broadcast, []byte("to all")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "three stations to hear the frame and let go of it", func() bool {
		for _, ifc := range ifcs[1:] {
			if ifc.inPackets.Load() != 1 {
				return false
			}
		}
		return block.Snapshot().InFlight == before.InFlight
	})
	// The frame block Transmit copies into, and the fan-out's wrapper.
	if d := block.Snapshot().Allocs - before.Allocs; d != 2 {
		t.Fatalf("one broadcast to three stations allocated %d blocks, want 2", d)
	}
	if ifcs[0].inPackets.Load() != 0 {
		t.Error("the sender heard its own frame")
	}
}

func TestConnExhaustionAndReuse(t *testing.T) {
	seg := newSeg(t, Profile{})
	ifc := seg.NewInterface("e")
	var conns []*Conn
	for range MaxConns {
		c, err := ifc.OpenConn()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if _, err := ifc.OpenConn(); !vfs.SameError(err, vfs.ErrInUse) {
		t.Errorf("conn table exhaustion error = %v", err)
	}
	conns[5].Close()
	c, err := ifc.OpenConn()
	if err != nil {
		t.Fatalf("reuse after close: %v", err)
	}
	if c.ID() != 6 {
		t.Errorf("reused conn id %d, want 6", c.ID())
	}
	for _, c := range conns {
		c.Close()
	}
}

// --- the Figure 1 file tree ---

func etherNS(t *testing.T, seg *Segment) (*ns.Namespace, *Interface) {
	t.Helper()
	ifc := seg.NewInterface("ether0")
	nsp := ns.New("bootes", ramfs.New("bootes").Root())
	dev := NewDev(ifc, "bootes")
	if err := nsp.MountDevice(dev, "", "/net/ether0", ns.MREPL); err != nil {
		t.Fatal(err)
	}
	return nsp, ifc
}

func TestFigure1FileTree(t *testing.T) {
	seg := newSeg(t, Profile{})
	nsp, _ := etherNS(t, seg)

	// Initially just the clone file.
	ents, err := nsp.ReadDir("/net/ether0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "clone" {
		t.Fatalf("initial entries %+v", ents)
	}

	// Opening the clone file finds an unused connection and opens
	// its ctl file; reading returns the ASCII connection number.
	ctl, err := nsp.Open("/net/ether0/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	buf := make([]byte, 16)
	n, err := ctl.Read(buf)
	if err != nil || string(buf[:n]) != "1" {
		t.Fatalf("clone read %q, %v", buf[:n], err)
	}

	// The connection directory appears, with the Figure 1 files.
	ents, _ = nsp.ReadDir("/net/ether0/1")
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	if strings.Join(names, " ") != "ctl data stats type" {
		t.Errorf("conn dir entries %v", names)
	}

	// connect 2048 configures the packet type; type file reflects it.
	if _, err := ctl.WriteString("connect 2048"); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/net/ether0/1/type")
	if err != nil || string(b) != "2048" {
		t.Errorf("type file %q, %v", b, err)
	}

	// stats reports the interface address and counters.
	b, _ = nsp.ReadFile("/net/ether0/1/stats")
	if !strings.Contains(string(b), "addr: 0800") {
		t.Errorf("stats missing address: %q", b)
	}
	// Bad ctl commands are rejected.
	if _, err := ctl.WriteString("frobnicate"); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("bad ctl = %v", err)
	}
	if _, err := ctl.WriteString("connect banana"); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("bad connect arg = %v", err)
	}
}

func TestDataFileSendReceive(t *testing.T) {
	seg := newSeg(t, Profile{})
	nsA, ifcA := etherNS(t, seg)
	nsB, ifcB := etherNS(t, seg)
	_ = ifcA

	// A: clone + connect 2048 + open data.
	ctlA, _ := nsA.Open("/net/ether0/clone", vfs.ORDWR)
	defer ctlA.Close()
	ctlA.WriteString("connect 2048")
	dataA, err := nsA.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer dataA.Close()

	ctlB, _ := nsB.Open("/net/ether0/clone", vfs.ORDWR)
	defer ctlB.Close()
	ctlB.WriteString("connect 2048")
	dataB, err := nsB.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer dataB.Close()

	// Write: first 6 bytes are the destination address.
	dstB := ifcB.Addr()
	msg := append(append([]byte{}, dstB[:]...), []byte("over the wire")...)
	if _, err := dataA.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	n, err := dataB.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[HdrLen:n]) != "over the wire" {
		t.Errorf("data file read %q", buf[HdrLen:n])
	}
}

// TestDataFileWriteReportsWhatItCannotSend: a write the segment will not
// carry — a payload over the MTU, or too few bytes to hold a destination
// address — is an error to the writer, not a frame silently dropped.
func TestDataFileWriteReportsWhatItCannotSend(t *testing.T) {
	seg := newSeg(t, Profile{})
	nsp, ifc := etherNS(t, seg)
	ctl, _ := nsp.Open("/net/ether0/clone", vfs.ORDWR)
	defer ctl.Close()
	ctl.WriteString("connect 2048")
	data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	dst := ifc.Addr()
	for _, tc := range []struct {
		name string
		msg  []byte
	}{
		{"over the MTU", append(dst[:], make([]byte, seg.MTU()+1)...)},
		{"runt", dst[:5]},
	} {
		if n, err := data.Write(tc.msg); err == nil {
			t.Errorf("%s: a %d-byte write returned %d, nil", tc.name, len(tc.msg), n)
		}
	}
	if _, err := data.Write(append(dst[:], make([]byte, seg.MTU())...)); err != nil {
		t.Errorf("a payload of exactly the MTU: %v", err)
	}
}

func TestConnLifetimeTiedToOpenFiles(t *testing.T) {
	seg := newSeg(t, Profile{})
	nsp, _ := etherNS(t, seg)
	ctl, _ := nsp.Open("/net/ether0/clone", vfs.ORDWR)
	ctl.WriteString("connect 7")
	data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	// Closing ctl alone keeps the conversation (data still open).
	ctl.Close()
	if _, err := nsp.Stat("/net/ether0/1"); err != nil {
		t.Fatalf("conn dir gone while data open: %v", err)
	}
	data.Close()
	if _, err := nsp.Stat("/net/ether0/1"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("conn dir survived last close: %v", err)
	}
}

func TestInterfaceStatsCounters(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	rx, _ := i2.OpenConn()
	rx.SetType(9)
	defer rx.Close()
	tx, _ := i1.OpenConn()
	tx.SetType(9)
	defer tx.Close()
	tx.Transmit(i2.Addr(), []byte("count me"))
	buf := make([]byte, 256)
	mustRead(t, rx, buf)
	if i1.outPackets.Load() != 1 {
		t.Errorf("tx out count %d", i1.outPackets.Load())
	}
	if i2.inPackets.Load() != 1 {
		t.Errorf("rx in count %d", i2.inPackets.Load())
	}
	s := i1.Stats()
	if !strings.Contains(s, "out: 1") {
		t.Errorf("stats text %q", s)
	}
}

func TestKernelDeliverHook(t *testing.T) {
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	got := make(chan []byte, 1)
	rx, _ := i2.OpenConn()
	rx.SetType(0x800)
	rx.SetDeliver(func(frame []byte) { got <- frame })
	defer rx.Close()
	tx, _ := i1.OpenConn()
	tx.SetType(0x800)
	defer tx.Close()
	tx.Transmit(i2.Addr(), []byte("to-kernel"))
	select {
	case f := <-got:
		if string(f[HdrLen:]) != "to-kernel" {
			t.Errorf("hook frame %q", f[HdrLen:])
		}
	case <-time.After(time.Second):
		t.Fatal("deliver hook never called")
	}
}

func TestUnreadConversationDoesNotWedgeInterface(t *testing.T) {
	// A snooping conversation nobody reads fills its queue; the
	// driver must drop for it and keep delivering new frames to
	// conversations that do read.
	seg := newSeg(t, Profile{})
	i1 := seg.NewInterface("e")
	i2 := seg.NewInterface("e")
	dead, _ := i2.OpenConn() // never read
	dead.SetType(0x700)
	defer dead.Close()
	live, _ := i2.OpenConn()
	live.SetType(0x700)
	defer live.Close()
	tx, _ := i1.OpenConn()
	tx.SetType(0x700)
	defer tx.Close()
	payload := make([]byte, 1400)
	// Saturate the dead conversation's queue (default limit 128K).
	for range 200 {
		tx.Transmit(i2.Addr(), payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i2.overflows.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if i2.overflows.Load() == 0 {
		t.Error("no overflow drops recorded for the unread conversation")
	}
	// Drain the live conversation's backlog below the drop threshold,
	// then prove fresh frames still flow to it.
	buf := make([]byte, 2048)
	for live.Stream().QueuedBytes() > 4096 {
		mustRead(t, live, buf)
	}
	tx.Transmit(i2.Addr(), []byte("still alive"))
	for range 600 {
		n := mustRead(t, live, buf)
		if string(buf[HdrLen:n]) == "still alive" {
			return
		}
	}
	t.Error("marker frame never reached the live conversation")
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestImpairmentDuplicatesFrames(t *testing.T) {
	seg := newSeg(t, Profile{Seed: 1, Impair: medium.Impairment{Duplicate: 1}})
	i1 := seg.NewInterface("ether0")
	i2 := seg.NewInterface("ether1")
	c1, _ := i1.OpenConn()
	c2, _ := i2.OpenConn()
	defer c1.Close()
	defer c2.Close()
	c1.SetType(0x900)
	c2.SetType(0x900)
	if err := c1.Transmit(i2.Addr(), []byte("echoed")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	for copies := range 2 {
		n := mustRead(t, c2, buf)
		if string(buf[HdrLen:n]) != "echoed" {
			t.Fatalf("copy %d: %q", copies, buf[:n])
		}
	}
	if c := seg.ImpairCounts(); c.Duplicated != 1 || c.Emitted != 2 {
		t.Errorf("counts = %v", c)
	}
}

func TestImpairmentReordersFrames(t *testing.T) {
	seg := newSeg(t, Profile{Seed: 2, Impair: medium.Impairment{Reorder: 0.5, ReorderDepth: 3}})
	i1 := seg.NewInterface("ether0")
	i2 := seg.NewInterface("ether1")
	c1, _ := i1.OpenConn()
	c2, _ := i2.OpenConn()
	defer c1.Close()
	defer c2.Close()
	c1.SetType(0x900)
	c2.SetType(0x900)
	const frames = 50
	for i := range frames {
		if err := c1.Transmit(i2.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "transmitter to drain", func() bool { return seg.ImpairCounts().Sent == frames })
	counts := seg.ImpairCounts()
	if counts.Held == 0 {
		t.Fatal("reorder never held a frame")
	}
	buf := make([]byte, 256)
	var order []int
	for range counts.Emitted {
		n := mustRead(t, c2, buf)
		order = append(order, int(buf[n-1]))
	}
	misordered := false
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			misordered = true
		}
	}
	if !misordered {
		t.Errorf("delivery order %v never misordered", order)
	}
}

// TestCorruptFramesFailFCS checks the hardware contract: a frame
// damaged on the wire fails the interface FCS check and is counted,
// never delivered — corruption on an Ethernet reaches protocols as
// loss, exactly like the real LANCE.
func TestCorruptFramesFailFCS(t *testing.T) {
	seg := newSeg(t, Profile{Seed: 3, Impair: medium.Impairment{Corrupt: 1}})
	i1 := seg.NewInterface("ether0")
	i2 := seg.NewInterface("ether1")
	c1, _ := i1.OpenConn()
	c2, _ := i2.OpenConn()
	defer c1.Close()
	defer c2.Close()
	c1.SetType(0x900)
	c2.SetType(0x900)
	const frames = 20
	for i := range frames {
		if err := c1.Transmit(i2.Addr(), []byte{byte(i), 0xaa, 0x55}); err != nil {
			t.Fatal(err)
		}
	}
	// CRC32 detects every single-bit error, so all 20 must bounce.
	waitFor(t, "crc errors", func() bool { return i2.CRCErrs() == frames })
	if q := c2.Stream().QueuedBytes(); q != 0 {
		t.Errorf("%d bytes of corrupt frames reached the conversation", q)
	}
	if !strings.Contains(i2.Stats(), "crc-errs: 20") {
		t.Errorf("stats file does not report the crc errors:\n%s", i2.Stats())
	}
}

// cloneConn opens the clone file and checks which conversation it got.
func cloneConn(t *testing.T, nsp *ns.Namespace, want string) *ns.FD {
	t.Helper()
	ctl, err := nsp.Open("/net/ether0/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := ctl.Read(buf); string(buf[:n]) != want {
		t.Fatalf("clone gave conversation %q, want %q", buf[:n], want)
	}
	return ctl
}

// TestStaleDataHandleCannotReadNextTenant is the Ethernet twin of the
// protocol devices' test of the same name: a conversation's files are
// closed, the clone file hands its slot to someone else, a frame
// arrives for the new tenant, and then the old data handle is used
// again. It must get a hangup, and the frame must still be there for
// the conversation it was sent to.
func TestStaleDataHandleCannotReadNextTenant(t *testing.T) {
	seg := newSeg(t, Profile{})
	nsp, ifc := etherNS(t, seg)
	tx, _ := seg.NewInterface("ether1").OpenConn()
	defer tx.Close()
	tx.SetType(0x900)

	ctl := cloneConn(t, nsp, "1")
	data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	stale := data.Handle()
	data.Close()
	ctl.Close()

	ctl2 := cloneConn(t, nsp, "1")
	defer ctl2.Close()
	if _, err := ctl2.WriteString("connect 2304"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Transmit(ifc.Addr(), []byte("for the second tenant")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame to reach conversation 1", func() bool {
		b, _ := nsp.ReadFile("/net/ether0/1/stats")
		return strings.Contains(string(b), "conn 1: type 2304 in 1 ")
	})

	buf := make([]byte, 256)
	if n, err := stale.Read(buf, 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("read through a closed handle: %q, %v; want %v", buf[:n], err, vfs.ErrHungup)
	}
	frame := append(append([]byte{}, Broadcast[:]...), "x"...)
	if _, err := stale.Write(frame, 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("write through a closed handle: %v, want %v", err, vfs.ErrHungup)
	}
	data2, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	got := make(chan string, 1)
	go func() {
		n, err := data2.Read(buf)
		got <- fmt.Sprintf("%q, %v", buf[min(n, HdrLen):n], err)
	}()
	select {
	case s := <-got:
		if s != `"for the second tenant", <nil>` {
			t.Errorf("second tenant read %s", s)
		}
	case <-time.After(2 * time.Second):
		t.Error("second tenant's frame is gone")
	}
}

// TestSecondCloseLeavesNextTenantAlone closes a handle a second time
// after its slot has changed hands. The reference it held is spent; the
// new tenant's reference count, and so its directory, must not move.
func TestSecondCloseLeavesNextTenantAlone(t *testing.T) {
	for _, file := range []string{"ctl", "data"} {
		seg := newSeg(t, Profile{})
		nsp, _ := etherNS(t, seg)
		ctl := cloneConn(t, nsp, "1")
		f, err := nsp.Open("/net/ether0/1/"+file, vfs.ORDWR)
		if err != nil {
			t.Fatal(err)
		}
		stale := f.Handle()
		f.Close()
		ctl.Close()

		ctl2 := cloneConn(t, nsp, "1")
		stale.Close()
		if _, err := nsp.Stat("/net/ether0/1"); err != nil {
			t.Errorf("second close of a released %s handle took the next tenant's directory: %v", file, err)
		}
		ctl2.Close()
	}
}

// TestConnCtlGrammar pins the §2.2 ctl vocabulary as netmsg parses it.
func TestConnCtlGrammar(t *testing.T) {
	seg := newSeg(t, Profile{})
	c, _ := seg.NewInterface("e").OpenConn()
	defer c.Close()
	for _, tc := range []struct {
		cmd  string
		ok   bool
		typ  int
		prom bool
	}{
		{"connect 2048", true, 2048, false},
		{"connect  2054 ", true, 2054, false},
		{"connect -1", true, TypeAll, false},
		{"connect 0", true, 0, false},
		{"connect 65535", true, 0xffff, false},
		{"connect 70000", false, 0xffff, false},
		{"connect -2", false, 0xffff, false},
		{"connect banana", false, 0xffff, false},
		{"connect 2048 2054", false, 0xffff, false},
		{"connect", false, 0xffff, false},
		{"", false, 0xffff, false},
		{"announce 2048", false, 0xffff, false},
		{"Connect 2048", false, 0xffff, false},
		{"promiscuous", true, 0xffff, true},
	} {
		err := connCtl(c, tc.cmd)
		if tc.ok && err != nil || !tc.ok && !vfs.SameError(err, vfs.ErrBadCtl) {
			t.Errorf("ctl %q: %v", tc.cmd, err)
		}
		if st := c.rx.Load(); st.etype != tc.typ || st.prom != tc.prom {
			t.Errorf("after ctl %q: type %d promiscuous %v, want %d %v", tc.cmd, st.etype, st.prom, tc.typ, tc.prom)
		}
	}
}
