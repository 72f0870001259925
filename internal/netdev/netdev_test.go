package netdev

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/il"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/ramfs"
	"repro/internal/streams"
	"repro/internal/tcp"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// onWorld runs body on a virtual clock with two machines on one
// ideal Ethernet, each with TCP and IL devices mounted in its name
// space.
func onWorld(t *testing.T, body func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr)) {
	t.Helper()
	onWorldWith(t, ether.Profile{}, body)
}

// onWorldWith is onWorld on an Ethernet of profile p.
func onWorldWith(t *testing.T, p ether.Profile, body func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		p.Clock = v
		seg := ether.NewSegment("e0", p)
		defer seg.Close()
		var spaces []*ns.Namespace
		for _, a := range []ip.Addr{{135, 104, 9, 31}, {135, 104, 53, 11}} {
			st := ip.NewStack(v)
			defer st.Close()
			if _, err := st.Bind(seg.NewInterface("ether0"), a, ip.Addr{255, 255, 0, 0}); err != nil { // same segment, one big net
				t.Error(err)
				return
			}
			tp, ilp := tcp.New(st), il.New(st)
			// Engine teardown wakes any goroutine still parked in a
			// blocking listen open when the test ends.
			defer tp.Close()
			defer ilp.Close()
			nsp := ns.New("bootes", ramfs.New("bootes").Root())
			nsp.MountDevice(New(tp, "bootes"), "", "/net/tcp", ns.MREPL)
			nsp.MountDevice(New(ilp, "bootes"), "", "/net/il", ns.MREPL)
			spaces = append(spaces, nsp)
		}
		body(v, spaces[0], spaces[1], ip.Addr{135, 104, 53, 11})
	})
}

// TestPaperConnectionDance walks the exact four steps of §2.3.
func TestPaperConnectionDance(t *testing.T) {
	onWorld(t, func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr) {

		// Server: clone, announce, open listen (blocks), then echo.
		ck.Go(func() {
			lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer lctl.Close()
			buf := make([]byte, 16)
			n, _ := lctl.Read(buf)
			dir := "/net/tcp/" + string(buf[:n])
			if _, err := lctl.WriteString("announce 564"); err != nil {
				t.Error(err)
				return
			}
			// Opening the listen file blocks until a call arrives and
			// returns a file descriptor for the ctl file of the new
			// connection.
			nctl, err := nsB.Open(dir+"/listen", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer nctl.Close()
			n, _ = nctl.Read(buf)
			ndir := "/net/tcp/" + string(buf[:n])
			data, err := nsB.Open(ndir+"/data", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer data.Close()
			b := make([]byte, 256)
			rn, err := data.Read(b)
			if err != nil {
				t.Error(err)
				return
			}
			data.Write(b[:rn])
		})

		ck.Sleep(20 * time.Millisecond) // let the announce land

		// Client: 1) open clone, 2) read connection number, 3) write the
		// address to ctl, 4) open data.
		ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		buf := make([]byte, 16)
		n, err := ctl.Read(buf)
		if err != nil {
			t.Error(err)
			return
		}
		convNum := string(buf[:n])
		if convNum != "0" && convNum != "1" {
			t.Errorf("connection number %q", convNum)
		}
		if _, err := ctl.WriteString("connect " + addrB.String() + "!564"); err != nil {
			t.Error(err)
			return
		}
		dir := "/net/tcp/" + convNum
		data, err := nsA.Open(dir+"/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data.Close()

		// The connection directory has the §2.3 files and the paper's
		// "cat local remote status" works (checked before the echo so the
		// server has not yet closed its end).
		ents, _ := nsA.ReadDir(dir)
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		if strings.Join(names, " ") != "ctl data listen local remote stats status trace" {
			t.Errorf("conversation dir: %v", names)
		}
		local, _ := nsA.ReadFile(dir + "/local")
		remote, _ := nsA.ReadFile(dir + "/remote")
		status, _ := nsA.ReadFile(dir + "/status")
		if !strings.Contains(string(remote), addrB.String()+"!564") {
			t.Errorf("remote file %q", remote)
		}
		if len(local) == 0 {
			t.Error("empty local file")
		}
		if !strings.Contains(string(status), "Established") {
			t.Errorf("status file %q", status)
		}
		if !strings.HasPrefix(string(status), "tcp/") {
			t.Errorf("status should begin with proto/conv: %q", status)
		}

		if _, err := data.WriteString("echo me"); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 64)
		rn, err := data.Read(got)
		if err != nil || string(got[:rn]) != "echo me" {
			t.Errorf("echoed %q, %v", got[:rn], err)
		}
	})
}

func TestProtoDevicesLookIdentical(t *testing.T) {
	// The same code drives IL with zero changes: only the directory
	// name and the address differ.
	onWorld(t, func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr) {
		ck.Go(func() {
			lctl, err := nsB.Open("/net/il/clone", vfs.ORDWR)
			if err != nil {
				return
			}
			defer lctl.Close()
			buf := make([]byte, 16)
			n, _ := lctl.Read(buf)
			lctl.WriteString("announce 17008")
			nctl, err := nsB.Open("/net/il/"+string(buf[:n])+"/listen", vfs.ORDWR)
			if err != nil {
				return
			}
			defer nctl.Close()
			n, _ = nctl.Read(buf)
			data, err := nsB.Open("/net/il/"+string(buf[:n])+"/data", vfs.ORDWR)
			if err != nil {
				return
			}
			defer data.Close()
			b := make([]byte, 256)
			rn, _ := data.Read(b)
			data.Write(b[:rn])
		})
		ck.Sleep(20 * time.Millisecond)

		ctl, err := nsA.Open("/net/il/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		buf := make([]byte, 16)
		n, _ := ctl.Read(buf)
		if _, err := ctl.WriteString("connect " + addrB.String() + "!17008"); err != nil {
			t.Error(err)
			return
		}
		data, err := nsA.Open("/net/il/"+string(buf[:n])+"/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data.Close()
		data.WriteString("il says hi")
		got := make([]byte, 64)
		rn, err := data.Read(got)
		if err != nil || string(got[:rn]) != "il says hi" {
			t.Errorf("il echo %q, %v", got[:rn], err)
		}
	})
}

func TestBadCtlCommands(t *testing.T) {
	onWorld(t, func(_ vclock.Clock, nsA, _ *ns.Namespace, _ ip.Addr) {
		ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		if _, err := ctl.WriteString("frobnicate"); !vfs.SameError(err, vfs.ErrBadCtl) {
			t.Errorf("unknown verb = %v", err)
		}
		if _, err := ctl.WriteString("connect"); !vfs.SameError(err, vfs.ErrBadCtl) {
			t.Errorf("connect without arg = %v", err)
		}
		if _, err := ctl.WriteString("connect not!an!address!at!all"); err == nil {
			t.Error("garbage address accepted")
		}
	})
}

func TestConversationFreedOnLastClose(t *testing.T) {
	onWorld(t, func(_ vclock.Clock, nsA, _ *ns.Namespace, _ ip.Addr) {
		ctl, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		buf := make([]byte, 8)
		n, _ := ctl.Read(buf)
		dir := "/net/tcp/" + string(buf[:n])
		if _, err := nsA.Stat(dir); err != nil {
			t.Errorf("conv dir missing while ctl open: %v", err)
			return
		}
		ctl.Close()
		if _, err := nsA.Stat(dir); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("conv dir survives last close: %v", err)
		}
		// The slot is reused by the next clone.
		ctl2, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		defer ctl2.Close()
		n, _ = ctl2.Read(buf)
		if string(buf[:n]) != "0" {
			t.Errorf("slot not reused: got %q", buf[:n])
		}
	})
}

func TestCloneListsOnlyLiveConversations(t *testing.T) {
	onWorld(t, func(_ vclock.Clock, nsA, _ *ns.Namespace, _ ip.Addr) {
		c0, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		defer c0.Close()
		c1, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		ents, _ := nsA.ReadDir("/net/tcp")
		if len(ents) != 4 { // clone + stats + 0 + 1
			t.Errorf("entries %d, want 4", len(ents))
		}
		c1.Close()
		ents, _ = nsA.ReadDir("/net/tcp")
		if len(ents) != 3 {
			t.Errorf("after close: %d entries, want 3", len(ents))
		}
		// The stats file reports the live conversation.
		b, err := nsA.ReadFile("/net/tcp/stats")
		if err != nil || !strings.HasPrefix(string(b), "tcp/0 ") {
			t.Errorf("stats file %q, %v", b, err)
		}
	})
}

func TestHangupCtl(t *testing.T) {
	onWorld(t, func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr) {
		ck.Go(func() {
			lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
			if err != nil {
				return
			}
			defer lctl.Close()
			buf := make([]byte, 16)
			n, _ := lctl.Read(buf)
			lctl.WriteString("announce 23")
			nctl, err := nsB.Open("/net/tcp/"+string(buf[:n])+"/listen", vfs.ORDWR)
			if err == nil {
				defer nctl.Close()
				ck.Sleep(200 * time.Millisecond)
			}
		})
		ck.Sleep(20 * time.Millisecond)
		ctl, _ := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		defer ctl.Close()
		buf := make([]byte, 8)
		ctl.Read(buf)
		if _, err := ctl.WriteString("connect " + addrB.String() + "!23"); err != nil {
			t.Error(err)
			return
		}
		if _, err := ctl.WriteString("hangup"); err != nil {
			t.Errorf("hangup ctl: %v", err)
		}
	})
}

// TestPushedModulesThroughCtl arms a conversation with the production
// line-discipline stack via the ctl file — "push compress", "push
// batch" — on both ends, exchanges traffic through the data files, and
// checks the per-conversation stats file reports balanced module
// counters. Then it pops the stack back off and verifies a bare pop is
// rejected.
func TestPushedModulesThroughCtl(t *testing.T) {
	onWorld(t, func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr) {

		const nmsg = 20
		srvReady := vclock.NewWaitGroup(ck)
		srvReady.Add(1)
		ck.Go(func() {
			lctl, err := nsB.Open("/net/tcp/clone", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer lctl.Close()
			buf := make([]byte, 16)
			n, _ := lctl.Read(buf)
			if _, err := lctl.WriteString("announce 7777"); err != nil {
				t.Error(err)
				return
			}
			srvReady.Done()
			nctl, err := nsB.Open("/net/tcp/"+string(buf[:n])+"/listen", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer nctl.Close()
			n, _ = nctl.Read(buf)
			ndir := "/net/tcp/" + string(buf[:n])
			// Arm the accepted conversation before touching data: both
			// ends of the wire must run the same stack in the same order.
			if _, err := nctl.WriteString("push compress"); err != nil {
				t.Error(err)
				return
			}
			if _, err := nctl.WriteString("push batch 256 1ms"); err != nil {
				t.Error(err)
				return
			}
			data, err := nsB.Open(ndir+"/data", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer data.Close()
			b := make([]byte, 4096)
			for i := 0; i < nmsg; i++ {
				rn, err := data.Read(b)
				if err != nil {
					t.Errorf("server read %d: %v", i, err)
					return
				}
				if _, err := data.Write(b[:rn]); err != nil {
					t.Errorf("server echo %d: %v", i, err)
					return
				}
			}
		})
		srvReady.Wait()
		ck.Sleep(20 * time.Millisecond)

		ctl, err := nsA.Open("/net/tcp/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		buf := make([]byte, 16)
		n, _ := ctl.Read(buf)
		dir := "/net/tcp/" + string(buf[:n])

		// An undisciplined conversation has an empty stats file.
		if b, err := nsA.ReadFile(dir + "/stats"); err != nil || len(b) != 0 {
			t.Errorf("stats before connect: %q, %v", b, err)
		}
		if _, err := ctl.WriteString("connect " + addrB.String() + "!7777"); err != nil {
			t.Error(err)
			return
		}
		// Live but undisciplined: the stats file exists and is empty.
		if b, err := nsA.ReadFile(dir + "/stats"); err != nil || len(b) != 0 {
			t.Errorf("stats before push: %q, %v", b, err)
		}
		if _, err := ctl.WriteString("push compress"); err != nil {
			t.Error(err)
			return
		}
		if _, err := ctl.WriteString("push batch 256 1ms"); err != nil {
			t.Error(err)
			return
		}
		// A bad spec must not wedge the armed conversation.
		if _, err := ctl.WriteString("push batch nope"); err == nil {
			t.Error("bad push spec accepted")
		}

		data, err := nsA.Open(dir+"/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data.Close()
		var sent int
		b := make([]byte, 4096)
		for i := 0; i < nmsg; i++ {
			msg := []byte(strings.Repeat("abcdefgh", i+1))
			sent += len(msg)
			if _, err := data.Write(msg); err != nil {
				t.Error(err)
				return
			}
			rn, err := data.Read(b)
			if err != nil {
				t.Error(err)
				return
			}
			if string(b[:rn]) != string(msg) {
				t.Errorf("echo %d: %d bytes back, want %d", i, rn, len(msg))
				return
			}
		}

		// The stats file must parse back to balanced module counters.
		sb, err := nsA.ReadFile(dir + "/stats")
		if err != nil {
			t.Error(err)
			return
		}
		st := obs.ParseStats(string(sb))
		if st["batch-msgs-in"] != nmsg {
			t.Errorf("batch-msgs-in = %d, want %d:\n%s", st["batch-msgs-in"], nmsg, sb)
		}
		if st["batch-bytes-in"] != int64(sent) {
			t.Errorf("batch-bytes-in = %d, want %d", st["batch-bytes-in"], sent)
		}
		if st["compress-saved-bytes"]+st["compress-wire-bytes"] != st["compress-bytes-in"] {
			t.Errorf("compress identity broken:\n%s", sb)
		}
		if st["compress-dec-errs"] != 0 || st["batch-errs"] != 0 {
			t.Errorf("decode errors on a clean wire:\n%s", sb)
		}

		// Pop the stack back off; a third pop has nothing left to take.
		if _, err := ctl.WriteString("pop"); err != nil {
			t.Error(err)
			return
		}
		if _, err := ctl.WriteString("pop"); err != nil {
			t.Error(err)
			return
		}
		if _, err := ctl.WriteString("pop"); err == nil {
			t.Error("pop on an empty stack accepted")
		}
	})
}

// fakeConn is a scripted conversation for the tests that need to hold
// the device at an exact point: its reads come from msgs, its Listen
// yields accept, and its Close parks on closeGate when one is set.
type fakeConn struct {
	msgs      chan string
	accept    *fakeConn
	closeGate chan struct{}
}

func (c *fakeConn) Connect(string) error        { return nil }
func (c *fakeConn) Announce(string) error       { return nil }
func (c *fakeConn) Listen() (xport.Conn, error) { return c.accept, nil }
func (c *fakeConn) Read(p []byte) (int, error) {
	select {
	case m := <-c.msgs:
		return copy(p, m), nil
	default:
		return 0, io.EOF
	}
}
func (c *fakeConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *fakeConn) LocalAddr() string           { return "fake!0" }
func (c *fakeConn) RemoteAddr() string          { return "fake!1" }
func (c *fakeConn) Status() string              { return "Established" }
func (c *fakeConn) Stream() *streams.Stream     { return nil }
func (c *fakeConn) Close() error {
	if c.closeGate != nil {
		<-c.closeGate
	}
	return nil
}

// fakeProto clones the scripted conversations in order, then blank ones.
type fakeProto struct{ script []*fakeConn }

func (p *fakeProto) Name() string        { return "fake" }
func (p *fakeProto) Clock() vclock.Clock { return vclock.Real }
func (p *fakeProto) NewConn() (xport.Conn, error) {
	if len(p.script) == 0 {
		return &fakeConn{}, nil
	}
	c := p.script[0]
	p.script = p.script[1:]
	return c, nil
}

func fakeNS(script ...*fakeConn) *ns.Namespace {
	nsp := ns.New("bootes", ramfs.New("bootes").Root())
	nsp.MountDevice(New(&fakeProto{script: script}, "bootes"), "", "/net/fake", ns.MREPL)
	return nsp
}

// TestRefusedAcceptHangsUpOutsideDeviceLock fills the conversation
// table and lets one more call arrive. The device must refuse it with
// ErrInUse and hang it up — and since a hangup can park on the wire
// (here: until the test opens the gate), it must do so without holding
// the device lock, or every walk of the device parks behind it. The
// test is about real concurrency, so it runs on the real clock (the
// scripted protocol's): a walk stuck behind the device lock would stop
// a virtual clock itself, and only the host's can notice.
func TestRefusedAcceptHangsUpOutsideDeviceLock(t *testing.T) {
	call := &fakeConn{closeGate: make(chan struct{})}
	nsp := fakeNS(&fakeConn{accept: call})
	for i := range MaxConvs {
		ctl, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		defer ctl.Close()
	}
	refused := make(chan error, 1)
	go func() {
		fd, err := nsp.Open("/net/fake/0/listen", vfs.ORDWR)
		if err == nil {
			fd.Close()
		}
		refused <- err
	}()
	// The listen is now either on its way to the refusal or parked in
	// the call's Close; the tree must list all the same.
	walked := make(chan int, 1)
	go func() {
		for range 50 {
			ents, _ := nsp.ReadDir("/net/fake")
			if len(ents) != MaxConvs+2 { // clone + stats + the conversations
				walked <- len(ents)
				return
			}
			time.Sleep(time.Millisecond) //netvet:ignore realtime lets the refused listen run between walks on the real clock
		}
		walked <- MaxConvs + 2
	}()
	select {
	case n := <-walked:
		if n != MaxConvs+2 {
			t.Errorf("device lists %d entries with the table full, want %d", n, MaxConvs+2)
		}
	case <-time.After(5 * time.Second): //netvet:ignore realtime a walk parked behind the device lock stops only the host's clock
		t.Error("device walk parked behind a refused call's hangup")
	}
	select {
	case err := <-refused:
		t.Errorf("listen returned (%v) before the call's hangup finished", err)
	default:
	}
	close(call.closeGate)
	if err := <-refused; !vfs.SameError(err, vfs.ErrInUse) {
		t.Errorf("listen on a full table: %v, want %v", err, vfs.ErrInUse)
	}
}

// TestStaleDataHandleCannotReadNextTenant closes a conversation, lets
// the slot be cloned again, and then reads through the data handle of
// the first one — what a 9P client's demux loop does when its Close
// overtakes it. The read must report a hangup and leave the new
// conversation's message where it is.
func TestStaleDataHandleCannotReadNextTenant(t *testing.T) {
	second := &fakeConn{msgs: make(chan string, 1)}
	second.msgs <- "for the second tenant"
	nsp := fakeNS(&fakeConn{}, second)

	ctl, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	data, err := nsp.Open("/net/fake/0/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	stale := data.Handle()
	data.Close()
	ctl.Close()

	ctl2, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl2.Close()
	buf := make([]byte, 64)
	if n, _ := ctl2.Read(buf); string(buf[:n]) != "0" {
		t.Fatalf("slot not reused: got %q", buf[:n])
	}
	if n, err := stale.Read(buf, 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("read through a closed handle: %q, %v; want %v", buf[:n], err, vfs.ErrHungup)
	}
	if _, err := stale.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("write through a closed handle: %v, want %v", err, vfs.ErrHungup)
	}
	data2, err := nsp.Open("/net/fake/0/data", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer data2.Close()
	if n, err := data2.Read(buf); err != nil || string(buf[:n]) != "for the second tenant" {
		t.Errorf("second tenant read %q, %v", buf[:n], err)
	}
}

// TestSecondCloseLeavesNextTenantAlone closes a handle a second time
// after its slot has changed hands. The reference it held is spent; the
// new tenant's reference count, and so its directory, must not move.
func TestSecondCloseLeavesNextTenantAlone(t *testing.T) {
	for _, file := range []string{"ctl", "data"} {
		nsp := fakeNS()
		ctl, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
		if err != nil {
			t.Fatal(err)
		}
		f, err := nsp.Open("/net/fake/0/"+file, vfs.ORDWR)
		if err != nil {
			t.Fatal(err)
		}
		stale := f.Handle()
		f.Close()
		ctl.Close()

		ctl2, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
		if err != nil {
			t.Fatal(err)
		}
		stale.Close()
		if _, err := nsp.Stat("/net/fake/0"); err != nil {
			t.Errorf("second close of a released %s handle took the next tenant's directory: %v", file, err)
		}
		ctl2.Close()
	}
}

// TestQidsLastTheTenancy: a conversation's files keep their qids for
// the whole tenancy — two walks of /net/fake/0/data give the same qid,
// as the kernel's generated entries do — and the slot's next tenancy
// gives new ones, so a client caching by qid cannot mistake one
// conversation for the next.
func TestQidsLastTheTenancy(t *testing.T) {
	nsp := fakeNS()
	qids := func() []uint64 {
		var paths []uint64
		for _, name := range []string{"/net/fake/0", "/net/fake/0/ctl", "/net/fake/0/data", "/net/fake/0/status"} {
			d, err := nsp.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, d.Qid.Path)
		}
		return paths
	}
	ctl, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	first := qids()
	if again := qids(); !slices.Equal(first, again) {
		t.Errorf("two walks in one tenancy: qids %v, then %v", first, again)
	}
	ctl.Close()
	ctl, err = nsp.Open("/net/fake/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for i, p := range qids() {
		if slices.Contains(first, p) {
			t.Errorf("the next tenancy of slot 0 reuses qid %d (file %d of %v)", p, i, first)
		}
	}
}

// TestTraceStampsSimulatedTime: "trace on" arms an IL conversation's
// ring on the protocol's clock, so on the virtual clock the trace file
// reads simulated time since the ctl write: exact instants on a paced
// wire, and the same bytes in every same-seed run.
func TestTraceStampsSimulatedTime(t *testing.T) {
	p := ether.Profile{Latency: time.Millisecond, Bandwidth: 1_250_000}
	run := func() (text string) {
		onWorldWith(t, p, func(ck vclock.Clock, nsA, nsB *ns.Namespace, addrB ip.Addr) {
			ck.Go(func() {
				lctl, err := nsB.Open("/net/il/clone", vfs.ORDWR)
				if err != nil {
					t.Error(err)
					return
				}
				defer lctl.Close()
				buf := make([]byte, 256)
				n, _ := lctl.Read(buf)
				if _, err := lctl.WriteString("announce 17008"); err != nil {
					t.Error(err)
					return
				}
				nctl, err := nsB.Open("/net/il/"+string(buf[:n])+"/listen", vfs.ORDWR)
				if err != nil {
					t.Error(err)
					return
				}
				defer nctl.Close()
				n, _ = nctl.Read(buf)
				data, err := nsB.Open("/net/il/"+string(buf[:n])+"/data", vfs.ORDWR)
				if err != nil {
					t.Error(err)
					return
				}
				defer data.Close()
				for {
					if _, err := data.Read(buf); err != nil {
						return
					}
				}
			})
			ck.Sleep(20 * time.Millisecond) // let the announce land
			ctl, err := nsA.Open("/net/il/clone", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer ctl.Close()
			buf := make([]byte, 16)
			n, _ := ctl.Read(buf)
			dir := "/net/il/" + string(buf[:n])
			if _, err := ctl.WriteString("connect " + addrB.String() + "!17008"); err != nil {
				t.Error(err)
				return
			}
			data, err := nsA.Open(dir+"/data", vfs.ORDWR)
			if err != nil {
				t.Error(err)
				return
			}
			defer data.Close()
			if _, err := ctl.WriteString("trace on"); err != nil {
				t.Error(err)
				return
			}
			ck.Sleep(10 * time.Millisecond)
			data.Write(make([]byte, 100))
			ck.Sleep(20 * time.Millisecond)
			data.Write(make([]byte, 200))
			ck.Sleep(20 * time.Millisecond)
			b, err := nsA.ReadFile(dir + "/trace")
			if err != nil {
				t.Error(err)
			}
			text = string(b)
		})
		return text
	}
	first := run()
	var id int64
	fmt.Sscanf(first, "1 10ms send %d", &id)
	// A frame's wire time: the payload behind IL's 18-byte header,
	// IP's 20, the Ethernet's 14 and its 4-byte FCS. Each message is
	// acked at once, so its ack lands one round trip after the send.
	wire := func(payload int) time.Duration {
		return medium.TransmitTime(payload+18+20+ether.HdrLen+4, p.Bandwidth)
	}
	rtt := func(payload int) time.Duration { return wire(payload) + wire(0) + 2*p.Latency }
	want := fmt.Sprintf("1 10ms send %d 100\n2 %v ack %d 0\n3 30ms send %d 200\n4 %v ack %d 0\n",
		id, 10*time.Millisecond+rtt(100), id, id+1, 30*time.Millisecond+rtt(200), id+1)
	if first != want {
		t.Errorf("trace file:\n%swant:\n%s", first, want)
	}
	if second := run(); second != first {
		t.Errorf("same-seed runs traced differently:\n%s\nthen\n%s", first, second)
	}
}

// A conversation that carries no event ring has no trace file: the
// directory lists the other seven, in order, and a walk to trace finds
// nothing.
func TestConvDirTraceOnlyForTracers(t *testing.T) {
	nsp := fakeNS()
	ctl, err := nsp.Open("/net/fake/clone", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ents, err := nsp.ReadDir("/net/fake/0")
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	if err != nil || strings.Join(names, " ") != "ctl data listen local remote stats status" {
		t.Errorf("conversation dir: %v, %v", names, err)
	}
	if _, err := nsp.Walk("/net/fake/0/trace"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("walk to trace = %v, want %v", err, vfs.ErrNotExist)
	}
}
