package ether

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onSegment runs body as the root machine goroutine of a fresh virtual
// clock, with a segment of profile p on that clock. The segment closes
// before the clock stops, so its processes wind down. The body reports
// failure with t.Error and returns, as off the test's own goroutine.
func onSegment(t *testing.T, p Profile, body func(seg *Segment)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		p.Clock = v
		seg := NewSegment("ether0", p)
		defer seg.Close()
		body(seg)
	})
}

// recv returns the next frame c's stream carries, header included, or
// an error if none arrives within a simulated second.
func recv(c *Conn) ([]byte, error) {
	ck := c.ifc.seg.ck
	type result struct {
		frame []byte
		err   error
	}
	got := vclock.NewMailbox[result](ck, 2)
	ck.Go(func() {
		buf := make([]byte, 2048)
		n, err := c.Read(buf)
		got.TrySend(result{buf[:n], err})
	})
	watchdog := ck.AfterFunc(time.Second, func() {
		got.TrySend(result{err: errors.New("no frame within a simulated second")})
	})
	defer watchdog.Stop()
	r, _ := got.Recv()
	return r.frame, r.err
}

// recvPayload is recv without the header.
func recvPayload(c *Conn) (string, error) {
	f, err := recv(c)
	if err == nil && len(f) < HdrLen {
		err = fmt.Errorf("%d-byte frame", len(f))
	}
	if err != nil {
		return "", err
	}
	return string(f[HdrLen:]), nil
}

// waitFor lets simulated time pass a millisecond at a time until cond
// holds, for at most two simulated seconds.
func waitFor(t *testing.T, ck vclock.Clock, what string, cond func() bool) bool {
	t.Helper()
	for range 2000 {
		if cond() {
			return true
		}
		ck.Sleep(time.Millisecond)
	}
	if cond() {
		return true
	}
	t.Errorf("timed out waiting for %s", what)
	return false
}

func TestAddrString(t *testing.T) {
	a := Addr{0x08, 0x00, 0x69, 0x02, 0x22, 0xf0}
	if a.String() != "0800690222f0" {
		t.Errorf("Addr.String = %q", a)
	}
}

func TestUnicastDelivery(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		i1 := seg.NewInterface("ether0")
		i2 := seg.NewInterface("ether0")
		c1, _ := i1.OpenConn()
		c2, _ := i2.OpenConn()
		c1.SetType(0x800)
		c2.SetType(0x800)
		defer c1.Close()
		defer c2.Close()

		if err := c1.Transmit(i2.Addr(), []byte("payload")); err != nil {
			t.Error(err)
			return
		}
		f, err := recv(c2)
		if err != nil || len(f) < HdrLen || string(f[HdrLen:]) != "payload" {
			t.Errorf("received %q, %v", f, err)
			return
		}
		// Header carries dst, src, type.
		var dst, src Addr
		copy(dst[:], f[0:6])
		copy(src[:], f[6:12])
		if dst != i2.Addr() || src != i1.Addr() {
			t.Errorf("header dst=%s src=%s", dst, src)
		}
		if et := int(f[12])<<8 | int(f[13]); et != 0x800 {
			t.Errorf("header type %#x", et)
		}
	})
}

func TestTypeFiltering(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
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
		if got, err := recvPayload(cARP); got != "arp" {
			t.Errorf("arp conn got %q, %v", got, err)
		}
		// The IP conversation must not have received it.
		if got := cIP.Stream().QueuedBytes(); got != 0 {
			t.Errorf("ip conn queued %d bytes of arp traffic", got)
		}
	})
}

func TestCopyToAllMatchingConversations(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
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
		if got, err := recvPayload(a); got != "dup" {
			t.Errorf("first conversation missed its copy: %q, %v", got, err)
		}
		if got, err := recvPayload(b); got != "dup" {
			t.Errorf("second conversation missed its copy: %q, %v", got, err)
		}
	})
}

func TestTypeAllAndPromiscuous(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
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
		if got, err := recvPayload(all); got != "sniffed" {
			t.Errorf("promiscuous conversation got %q, %v", got, err)
		}
		// Type -1 without promiscuous sees only frames addressed to us,
		// though its interface hears everything for its neighbour.
		only, _ := i3.OpenConn()
		only.SetType(TypeAll)
		defer only.Close()
		tx.Transmit(i2.Addr(), []byte("not-для-нас"))
		seg.Clock().Sleep(10 * time.Millisecond)
		if only.Stream().QueuedBytes() != 0 {
			t.Error("type -1 conversation received a frame addressed elsewhere")
		}
		tx.Transmit(Broadcast, []byte("bcast"))
		if got, err := recvPayload(only); got != "bcast" {
			t.Errorf("broadcast not seen by type -1: %q, %v", got, err)
		}
	})
}

func TestMTUEnforced(t *testing.T) {
	onSegment(t, Profile{MTU: 64}, func(seg *Segment) {
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
	})
}

func TestLossProfileDropsFrames(t *testing.T) {
	onSegment(t, Profile{Loss: 1.0, Seed: 42, Bandwidth: 1 << 30}, func(seg *Segment) {
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
		seg.Clock().Sleep(30 * time.Millisecond)
		if rx.Stream().QueuedBytes() != 0 || i2.inPackets.Load() != 0 {
			t.Error("frames survived a loss=1.0 medium")
		}
	})
}

// TestLatencyProfileDelays: on the virtual clock the frame arrives
// exactly one serialization time plus the propagation latency after it
// was sent.
func TestLatencyProfileDelays(t *testing.T) {
	const latency, bandwidth = 30 * time.Millisecond, 1 << 30
	onSegment(t, Profile{Latency: latency, Bandwidth: bandwidth}, func(seg *Segment) {
		i1 := seg.NewInterface("e")
		i2 := seg.NewInterface("e")
		rx, _ := i2.OpenConn()
		rx.SetType(1)
		defer rx.Close()
		tx, _ := i1.OpenConn()
		tx.SetType(1)
		defer tx.Close()
		ck := seg.Clock()
		start := ck.Now()
		tx.Transmit(i2.Addr(), []byte("slow"))
		if _, err := recv(rx); err != nil {
			t.Error(err)
			return
		}
		want := latency + medium.TransmitTime(HdrLen+len("slow")+fcsLen, bandwidth)
		if el := ck.Since(start); el != want {
			t.Errorf("frame arrived after %v, want %v", el, want)
		}
	})
}

// The paced wire fans a frame out as every wire does: the
// sender's block itself, shared by reference count, however many
// stations hear it — no wrapper, and not one block per station.
func TestPacedFanOutSharesOneBlock(t *testing.T) {
	onSegment(t, Profile{Latency: time.Millisecond, Bandwidth: 1 << 30}, func(seg *Segment) {
		var ifcs []*Interface
		for range 4 {
			ifcs = append(ifcs, seg.NewInterface("e"))
		}
		tx, _ := ifcs[0].OpenConn()
		tx.SetType(1)
		defer tx.Close()
		before := block.Snapshot()
		if err := tx.Transmit(Broadcast, []byte("to all")); err != nil {
			t.Error(err)
			return
		}
		if !waitFor(t, seg.Clock(), "three stations to hear the frame and let go of it", func() bool {
			for _, ifc := range ifcs[1:] {
				if ifc.inPackets.Load() != 1 {
					return false
				}
			}
			now := block.Snapshot()
			return now.InFlight == before.InFlight && now.RawInFlight == before.RawInFlight
		}) {
			return
		}
		// The frame block Transmit copies into, and nothing else.
		if d := block.Snapshot().Allocs - before.Allocs; d != 1 {
			t.Errorf("one broadcast to three stations allocated %d blocks, want 1", d)
		}
		if ifcs[0].inPackets.Load() != 0 {
			t.Error("the sender heard its own frame")
		}
	})
}

func TestConnExhaustionAndReuse(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		ifc := seg.NewInterface("e")
		var conns []*Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for range MaxConns {
			c, err := ifc.OpenConn()
			if err != nil {
				t.Error(err)
				return
			}
			conns = append(conns, c)
		}
		if _, err := ifc.OpenConn(); !vfs.SameError(err, vfs.ErrInUse) {
			t.Errorf("conn table exhaustion error = %v", err)
		}
		conns[5].Close()
		c, err := ifc.OpenConn()
		if err != nil {
			t.Errorf("reuse after close: %v", err)
			return
		}
		conns[5] = c
		if c.ID() != 6 {
			t.Errorf("reused conn id %d, want 6", c.ID())
		}
	})
}

// --- the address filter ---

// crowd is one segment's stations in join order: three promiscuous
// stations around an addressee, a bystander and a sender. Every
// station's conversation logs the frames it is handed, by station
// name, so the log shows in which order the stations were handed a
// frame.
type crowd struct {
	seg    *Segment
	names  []string
	byName map[string]*Interface
	tx     *Conn            // the sender's conversation
	prom   map[string]*Conn // each promiscuous station's conversation
	log    []string
}

func newCrowd(seg *Segment) *crowd {
	cr := &crowd{
		seg:    seg,
		names:  []string{"p1", "addressee", "bystander", "p2", "sender", "p3"},
		byName: map[string]*Interface{},
		prom:   map[string]*Conn{},
	}
	for _, name := range cr.names {
		ifc := seg.NewInterface(name)
		cr.byName[name] = ifc
		c, _ := ifc.OpenConn()
		c.SetType(TypeAll)
		c.SetDeliver(func([]byte) { cr.log = append(cr.log, name) })
		switch name {
		case "sender":
			cr.tx = c
		case "p1", "p2", "p3":
			c.SetPromiscuous(true)
			cr.prom[name] = c
		}
	}
	return cr
}

// send transmits one frame to dst and returns the log of the
// conversations handed it.
func (cr *crowd) send(t *testing.T, dst Addr) []string {
	t.Helper()
	cr.log = nil
	if err := cr.tx.Transmit(dst, []byte("frame")); err != nil {
		t.Error(err)
	}
	cr.seg.Clock().Sleep(10 * time.Millisecond)
	return cr.log
}

// heard transmits one frame to dst and returns the stations whose
// interface received it, in join order, and the conversations' log.
func (cr *crowd) heard(t *testing.T, dst Addr) (stations, log []string) {
	t.Helper()
	before := map[string]int64{}
	for _, name := range cr.names {
		before[name] = cr.in(name)
	}
	log = cr.send(t, dst)
	for _, name := range cr.names {
		if cr.in(name) != before[name] {
			stations = append(stations, name)
		}
	}
	return stations, log
}

// in is a station's count of frames received.
func (cr *crowd) in(name string) int64 {
	return cr.byName[name].inPackets.Load()
}

// filterProfiles are the two kinds of wire: on the ideal one a frame is
// due on the delay line at once, on the paced one a wire time and a
// latency later.
var filterProfiles = []struct {
	name string
	p    Profile
}{
	{"ideal", Profile{}},
	{"paced", Profile{Latency: time.Millisecond, Bandwidth: 1_250_000}},
}

// TestUnicastReachesAddresseeAndPromiscuousStations: a unicast frame
// reaches its addressee and every promiscuous station, in the order
// they joined the segment, and no other interface; a broadcast reaches
// everyone but the sender; a frame for an address nobody has reaches
// the promiscuous stations alone.
func TestUnicastReachesAddresseeAndPromiscuousStations(t *testing.T) {
	for _, tc := range filterProfiles {
		t.Run(tc.name, func(t *testing.T) {
			onSegment(t, tc.p, func(seg *Segment) {
				cr := newCrowd(seg)
				for _, c := range []struct {
					what string
					dst  Addr
					want []string
				}{
					{"unicast", cr.byName["addressee"].Addr(), []string{"p1", "addressee", "p2", "p3"}},
					{"unicast to a promiscuous station", cr.byName["p2"].Addr(), []string{"p1", "p2", "p3"}},
					{"broadcast", Broadcast, []string{"p1", "addressee", "bystander", "p2", "p3"}},
					{"unicast to nobody here", Addr{0x08, 0, 0x69, 0xff, 0xff, 0xff}, []string{"p1", "p2", "p3"}},
					{"unicast to the sender itself", cr.byName["sender"].Addr(), []string{"p1", "p2", "p3"}},
				} {
					stations, log := cr.heard(t, c.dst)
					if !slices.Equal(stations, c.want) || !slices.Equal(log, c.want) {
						t.Errorf("%s heard by %v and handed on in the order %v, want %v", c.what, stations, log, c.want)
					}
				}
			})
		})
	}
}

// TestBystanderCountsOnlyBroadcasts: the receive counters see only what
// the address filter passed, so a station that is neither addressed nor
// promiscuous counts the broadcasts and nothing else.
func TestBystanderCountsOnlyBroadcasts(t *testing.T) {
	for _, tc := range filterProfiles {
		t.Run(tc.name, func(t *testing.T) {
			onSegment(t, tc.p, func(seg *Segment) {
				cr := newCrowd(seg)
				for _, dst := range []Addr{cr.byName["addressee"].Addr(), Broadcast, cr.byName["addressee"].Addr(), Broadcast, cr.byName["p1"].Addr()} {
					cr.send(t, dst)
				}
				for name, want := range map[string]int64{"bystander": 2, "addressee": 4, "p1": 5, "p2": 5, "p3": 5, "sender": 0} {
					if got := cr.in(name); got != want {
						t.Errorf("%s in = %d, want %d", name, got, want)
					}
				}
				if s := cr.byName["bystander"].Stats(); !strings.Contains(s, "\nin: 2\n") {
					t.Errorf("bystander's stats file:\n%s", s)
				}
			})
		})
	}
}

// TestPromiscuousHangupStopsOtherStationsUnicasts: when a station's
// last promiscuous conversation hangs up, the station stops hearing
// unicasts for others — but still hears broadcasts, and a station with
// a second promiscuous conversation keeps hearing everything.
func TestPromiscuousHangupStopsOtherStationsUnicasts(t *testing.T) {
	for _, tc := range filterProfiles {
		t.Run(tc.name, func(t *testing.T) {
			onSegment(t, tc.p, func(seg *Segment) {
				cr := newCrowd(seg)
				second, _ := cr.byName["p3"].OpenConn()
				second.SetPromiscuous(true)
				cr.prom["p2"].Close()
				cr.prom["p3"].Close()
				to := cr.byName["addressee"].Addr()
				p2, p3 := cr.in("p2"), cr.in("p3")
				if got, want := cr.send(t, to), []string{"p1", "addressee"}; !slices.Equal(got, want) {
					t.Errorf("after the hangups a unicast was logged by %v, want %v", got, want)
				}
				if cr.in("p2") != p2 {
					t.Error("a station whose promiscuous conversation hung up still hears others' unicasts")
				}
				if cr.in("p3") != p3+1 {
					t.Error("a station with a promiscuous conversation left stopped hearing others' unicasts")
				}
				second.Close()
				cr.send(t, to)
				if cr.in("p3") != p3+1 {
					t.Error("a station whose last promiscuous conversation hung up still hears others' unicasts")
				}
				cr.send(t, Broadcast)
				if cr.in("p2") != p2+1 || cr.in("p3") != p3+2 {
					t.Error("a station that left promiscuous mode stopped hearing broadcasts")
				}
			})
		})
	}
}

// TestAllocsUnicastFanOut: a unicast frame on a crowded ideal segment
// allocates nothing — the frame block comes from the pool, the station
// set is read, not copied, and the delay line hands a due frame on
// without parking.
func TestAllocsUnicastFanOut(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var allocs float64
	onSegment(t, Profile{}, func(seg *Segment) {
		var ifcs []*Interface
		for range 64 {
			ifcs = append(ifcs, seg.NewInterface("ether0"))
		}
		tx, _ := ifcs[0].OpenConn()
		defer tx.Close()
		tx.SetType(0x900)
		dst := ifcs[40].Addr()
		payload := make([]byte, 64)
		allocs = testing.AllocsPerRun(200, func() {
			tx.Transmit(dst, payload)
			seg.Clock().Sleep(0) // the frame is due now: the line's receive takes it and frees it at its first wake
		})
		if n := ifcs[40].inPackets.Load(); n != 201 {
			t.Errorf("the addressee heard %d frames, want 201", n)
		}
	})
	t.Logf("one unicast frame on a 64-station segment: %.1f allocs", allocs)
	if allocs != 0 {
		t.Errorf("a unicast frame allocates %.1f objects, want 0 (a station snapshot per frame is back?)", allocs)
	}
}

// TestAllocsPacedUnicast: a unicast frame on a paced, unimpaired wire
// allocates nothing from transmit through the delay line and the
// fan-out to the kernel hook — the frame stays the sender's pooled
// block the whole way, and the line's process parks for free.
func TestAllocsPacedUnicast(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var allocs float64
	onSegment(t, Profile{Latency: time.Millisecond, Bandwidth: 1_250_000}, func(seg *Segment) {
		a, b := seg.NewInterface("ether0"), seg.NewInterface("ether0")
		tx, _ := a.OpenConn()
		defer tx.Close()
		tx.SetType(0x900)
		rx, _ := b.OpenConn()
		defer rx.Close()
		rx.SetType(0x900)
		heard := 0
		rx.SetDeliver(func([]byte) { heard++ })
		payload := make([]byte, 64)
		allocs = testing.AllocsPerRun(200, func() {
			tx.Transmit(b.Addr(), payload)
			seg.Clock().Sleep(2 * time.Millisecond) // the frame arrives and the hook returns
		})
		if heard != 201 {
			t.Errorf("the kernel hook heard %d frames, want 201", heard)
		}
	})
	t.Logf("one unicast frame on a paced wire: %.1f allocs", allocs)
	if allocs != 0 {
		t.Errorf("a paced unicast frame allocates %.1f objects, want 0 (a detached frame or a wrapper per frame is back?)", allocs)
	}
}

// TestSwitchesPacedUnicast pins what a paced frame costs the scheduler
// in hand-offs: none. The delay line's clock event demultiplexes it for
// the receiving station itself, as a function call on the goroutine
// that parked, so the sender's sleep keeps the token however many
// frames arrive while it sleeps. (A line with a process of its own
// cost one wake per frame, 200 and 2 here.)
func TestSwitchesPacedUnicast(t *testing.T) {
	var oneAtATime, backToBack int64
	onSegment(t, Profile{Latency: time.Millisecond, Bandwidth: 1_250_000}, func(seg *Segment) {
		v := seg.Clock().(*vclock.Virtual)
		a, b := seg.NewInterface("ether0"), seg.NewInterface("ether0")
		tx, _ := a.OpenConn()
		defer tx.Close()
		tx.SetType(0x900)
		rx, _ := b.OpenConn()
		defer rx.Close()
		rx.SetType(0x900)
		heard := 0
		rx.SetDeliver(func([]byte) { heard++ })
		payload := make([]byte, 64)
		s := v.Switches()
		for range 100 {
			tx.Transmit(b.Addr(), payload)
			v.Sleep(2 * time.Millisecond) // the frame arrives and the hook returns
		}
		oneAtATime = v.Switches() - s
		s = v.Switches()
		for range 100 {
			tx.Transmit(b.Addr(), payload)
		}
		v.Sleep(20 * time.Millisecond) // 100 frames of 82 bytes at 1.25 MB/s, plus the latency
		backToBack = v.Switches() - s
		if heard != 200 {
			t.Errorf("the kernel hook heard %d frames, want 200", heard)
		}
	})
	t.Logf("100 paced frames: %d switches one at a time, %d back to back", oneAtATime, backToBack)
	if oneAtATime != 0 || backToBack != 0 {
		t.Errorf("100 paced frames switched %d times one at a time and %d back to back, want 0 and 0 (a process is back between the line and the hook?)", oneAtATime, backToBack)
	}
}

// TestSwitchesIdealBroadcast pins what a broadcast costs the scheduler
// on a crowded ideal segment: the paced figure, none, as the delay
// line's clock event runs all 63 hearing stations' receives. A process
// for the line cost two hand-offs a frame (200 here), and a process per
// station would cost a hand-off per station.
func TestSwitchesIdealBroadcast(t *testing.T) {
	var switches int64
	onSegment(t, Profile{}, func(seg *Segment) {
		v := seg.Clock().(*vclock.Virtual)
		var ifcs []*Interface
		for range 64 {
			ifcs = append(ifcs, seg.NewInterface("ether0"))
		}
		tx, _ := ifcs[0].OpenConn()
		defer tx.Close()
		tx.SetType(0x900)
		payload := make([]byte, 64)
		s := v.Switches()
		for range 100 {
			tx.Transmit(Broadcast, payload)
			v.Sleep(time.Millisecond) // the frame reaches every station
		}
		switches = v.Switches() - s
		for i, ifc := range ifcs[1:] {
			if n := ifc.inPackets.Load(); n != 100 {
				t.Errorf("station %d heard %d broadcasts, want 100", i+1, n)
				return
			}
		}
	})
	t.Logf("100 broadcasts on a 64-station ideal segment: %d switches", switches)
	if switches != 0 {
		t.Errorf("100 broadcasts on a 64-station ideal segment switched %d times, want 0 (a process per line or per station is back?)", switches)
	}
}

// --- the Figure 1 file tree ---

func etherNS(t *testing.T, seg *Segment) (*ns.Namespace, *Interface) {
	t.Helper()
	ifc := seg.NewInterface("ether0")
	nsp := ns.New("bootes", ramfs.New("bootes").Root())
	dev := NewDev(ifc, "bootes")
	if err := nsp.MountDevice(dev, "", "/net/ether0", ns.MREPL); err != nil {
		t.Error(err)
	}
	return nsp, ifc
}

func TestFigure1FileTree(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		nsp, _ := etherNS(t, seg)

		// Initially just the clone file.
		ents, err := nsp.ReadDir("/net/ether0")
		if err != nil || len(ents) != 1 || ents[0].Name != "clone" {
			t.Errorf("initial entries %+v, %v", ents, err)
			return
		}

		// Opening the clone file finds an unused connection and opens
		// its ctl file; reading returns the ASCII connection number.
		ctl, err := nsp.Open("/net/ether0/clone", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		buf := make([]byte, 16)
		n, err := ctl.Read(buf)
		if err != nil || string(buf[:n]) != "1" {
			t.Errorf("clone read %q, %v", buf[:n], err)
			return
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
			t.Error(err)
			return
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
	})
}

func TestDataFileSendReceive(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		nsA, _ := etherNS(t, seg)
		nsB, ifcB := etherNS(t, seg)

		// A: clone + connect 2048 + open data.
		ctlA, _ := nsA.Open("/net/ether0/clone", vfs.ORDWR)
		defer ctlA.Close()
		ctlA.WriteString("connect 2048")
		dataA, err := nsA.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer dataA.Close()

		ctlB, _ := nsB.Open("/net/ether0/clone", vfs.ORDWR)
		defer ctlB.Close()
		ctlB.WriteString("connect 2048")
		dataB, err := nsB.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer dataB.Close()

		// Write: first 6 bytes are the destination address.
		dstB := ifcB.Addr()
		msg := append(append([]byte{}, dstB[:]...), []byte("over the wire")...)
		if _, err := dataA.Write(msg); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 2048)
		n, err := dataB.Read(buf)
		if err != nil || string(buf[HdrLen:n]) != "over the wire" {
			t.Errorf("data file read %q, %v", buf[:n], err)
		}
	})
}

// TestDataFileWriteReportsWhatItCannotSend: a write the segment will not
// carry — a payload over the MTU, or too few bytes to hold a destination
// address — is an error to the writer, not a frame silently dropped.
func TestDataFileWriteReportsWhatItCannotSend(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		nsp, ifc := etherNS(t, seg)
		ctl, _ := nsp.Open("/net/ether0/clone", vfs.ORDWR)
		defer ctl.Close()
		ctl.WriteString("connect 2048")
		data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
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
	})
}

func TestConnLifetimeTiedToOpenFiles(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		nsp, _ := etherNS(t, seg)
		ctl, _ := nsp.Open("/net/ether0/clone", vfs.ORDWR)
		ctl.WriteString("connect 7")
		data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			ctl.Close()
			t.Error(err)
			return
		}
		// Closing ctl alone keeps the conversation (data still open).
		ctl.Close()
		if _, err := nsp.Stat("/net/ether0/1"); err != nil {
			t.Errorf("conn dir gone while data open: %v", err)
		}
		data.Close()
		if _, err := nsp.Stat("/net/ether0/1"); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("conn dir survived last close: %v", err)
		}
	})
}

func TestInterfaceStatsCounters(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		i1 := seg.NewInterface("e")
		i2 := seg.NewInterface("e")
		rx, _ := i2.OpenConn()
		rx.SetType(9)
		defer rx.Close()
		tx, _ := i1.OpenConn()
		tx.SetType(9)
		defer tx.Close()
		tx.Transmit(i2.Addr(), []byte("count me"))
		if _, err := recv(rx); err != nil {
			t.Error(err)
			return
		}
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
	})
}

func TestKernelDeliverHook(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		i1 := seg.NewInterface("e")
		i2 := seg.NewInterface("e")
		var got []string
		rx, _ := i2.OpenConn()
		rx.SetType(0x800)
		rx.SetDeliver(func(frame []byte) { got = append(got, string(frame[HdrLen:])) })
		defer rx.Close()
		tx, _ := i1.OpenConn()
		tx.SetType(0x800)
		defer tx.Close()
		tx.Transmit(i2.Addr(), []byte("to-kernel"))
		if waitFor(t, seg.Clock(), "the deliver hook", func() bool { return len(got) > 0 }) &&
			!slices.Equal(got, []string{"to-kernel"}) {
			t.Errorf("hook frames %q", got)
		}
	})
}

// TestUnreadConversationDoesNotWedgeInterface: a snooping conversation
// nobody reads fills its queue; the driver must drop for it and keep
// delivering new frames to conversations that do read. The delay
// line's own process demultiplexes, so a receive that parked there
// would stall the whole segment, not one station.
func TestUnreadConversationDoesNotWedgeInterface(t *testing.T) {
	for _, tc := range filterProfiles {
		t.Run(tc.name, func(t *testing.T) {
			onSegment(t, tc.p, func(seg *Segment) {
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
				if !waitFor(t, seg.Clock(), "overflow drops for the unread conversation", func() bool {
					return i2.overflows.Load() > 0
				}) {
					return
				}
				// Drain the live conversation's backlog below the drop threshold,
				// then prove fresh frames still flow to it.
				for live.Stream().QueuedBytes() > 4096 {
					if _, err := recv(live); err != nil {
						t.Error(err)
						return
					}
				}
				tx.Transmit(i2.Addr(), []byte("still alive"))
				for range 600 {
					got, err := recvPayload(live)
					if err != nil {
						t.Error(err)
						return
					}
					if got == "still alive" {
						return
					}
				}
				t.Error("marker frame never reached the live conversation")
			})
		})
	}
}

// TestPacedBroadcastReachesEveryoneAtOnce: on the paced wire a
// broadcast reaches every other station at the one instant its last bit
// arrives, handed on in join order by the delay line itself, and each
// station's receive counters read one frame, its bytes without the FCS,
// and no overflow. A stream conversation gets the frame as a kernel
// hook does.
func TestPacedBroadcastReachesEveryoneAtOnce(t *testing.T) {
	p := Profile{Latency: time.Millisecond, Bandwidth: 1_250_000}
	onSegment(t, p, func(seg *Segment) {
		ck := seg.Clock()
		type arrival struct {
			name string
			at   time.Duration
		}
		var got []arrival
		names := []string{"a", "sender", "b", "c", "d"}
		ifcs := map[string]*Interface{}
		var tx *Conn
		for _, name := range names {
			ifc := seg.NewInterface(name)
			ifcs[name] = ifc
			c, _ := ifc.OpenConn()
			defer c.Close()
			c.SetType(0x900)
			if name == "sender" {
				tx = c
				continue
			}
			c.SetDeliver(func([]byte) { got = append(got, arrival{name, ck.Since(vclock.Epoch)}) })
		}
		reader, _ := ifcs["c"].OpenConn() // a second conversation, read through its stream
		defer reader.Close()
		reader.SetType(0x900)
		payload := []byte("to every station")
		start := ck.Since(vclock.Epoch)
		if err := tx.Transmit(Broadcast, payload); err != nil {
			t.Error(err)
			return
		}
		at := start + medium.TransmitTime(HdrLen+len(payload)+fcsLen, p.Bandwidth) + p.Latency
		if f, err := recvPayload(reader); err != nil || f != string(payload) {
			t.Errorf("the stream conversation read %q, %v", f, err)
		}
		want := []arrival{{"a", at}, {"b", at}, {"c", at}, {"d", at}}
		if !slices.Equal(got, want) {
			t.Errorf("the hooks heard %v, want %v", got, want)
		}
		for _, name := range names {
			in, inBytes := int64(1), int64(HdrLen+len(payload))
			if name == "sender" {
				in, inBytes = 0, 0
			}
			ifc := ifcs[name]
			if ifc.inPackets.Load() != in || ifc.inBytes.Load() != inBytes || ifc.overflows.Load() != 0 || ifc.crcErrs.Load() != 0 {
				t.Errorf("%s: in %d, in-bytes %d, overflows %d, crc-errs %d; want %d, %d, 0, 0", name,
					ifc.inPackets.Load(), ifc.inBytes.Load(), ifc.overflows.Load(), ifc.crcErrs.Load(), in, inBytes)
			}
		}
	})
}

func TestImpairmentDuplicatesFrames(t *testing.T) {
	onSegment(t, Profile{Seed: 1, Impair: medium.Impairment{Duplicate: 1}}, func(seg *Segment) {
		i1 := seg.NewInterface("ether0")
		i2 := seg.NewInterface("ether1")
		c1, _ := i1.OpenConn()
		c2, _ := i2.OpenConn()
		defer c1.Close()
		defer c2.Close()
		c1.SetType(0x900)
		c2.SetType(0x900)
		if err := c1.Transmit(i2.Addr(), []byte("echoed")); err != nil {
			t.Error(err)
			return
		}
		for copies := range 2 {
			if got, err := recvPayload(c2); got != "echoed" {
				t.Errorf("copy %d: %q, %v", copies, got, err)
				return
			}
		}
		if c := seg.ImpairCounts(); c.Duplicated != 1 || c.Emitted != 2 {
			t.Errorf("counts = %v", c)
		}
	})
}

func TestImpairmentReordersFrames(t *testing.T) {
	onSegment(t, Profile{Seed: 2, Impair: medium.Impairment{Reorder: 0.5, ReorderDepth: 3}}, func(seg *Segment) {
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
				t.Error(err)
				return
			}
		}
		if !waitFor(t, seg.Clock(), "transmitter to drain", func() bool { return seg.ImpairCounts().Sent == frames }) {
			return
		}
		counts := seg.ImpairCounts()
		if counts.Held == 0 {
			t.Error("reorder never held a frame")
			return
		}
		var order []int
		for range counts.Emitted {
			f, err := recv(c2)
			if err != nil {
				t.Error(err)
				return
			}
			order = append(order, int(f[len(f)-1]))
		}
		if slices.IsSorted(order) {
			t.Errorf("delivery order %v never misordered", order)
		}
	})
}

// TestHeldFrameKeepsItsRoute: a frame the impairer holds for
// reordering is released by a later transmission — on two stations
// taking turns, always the other station's — and still travels from
// its own sender to its own addressee. Every frame is held until the
// next one is sent, so W, sent only to release Z, stays held.
func TestHeldFrameKeepsItsRoute(t *testing.T) {
	onSegment(t, Profile{Seed: 1, Impair: medium.Impairment{Reorder: 1, ReorderDepth: 1}}, func(seg *Segment) {
		a, b := seg.NewInterface("ether0"), seg.NewInterface("ether1")
		ca, _ := a.OpenConn()
		cb, _ := b.OpenConn()
		defer ca.Close()
		defer cb.Close()
		ca.SetType(0x900)
		cb.SetType(0x900)
		for _, f := range []struct {
			from    *Conn
			to      Addr
			payload string
		}{{ca, b.Addr(), "X"}, {cb, a.Addr(), "Y"}, {ca, b.Addr(), "Z"}, {cb, a.Addr(), "W"}} {
			if err := f.from.Transmit(f.to, []byte(f.payload)); err != nil {
				t.Error(err)
				return
			}
		}
		for _, want := range []struct {
			at      *Conn
			payload string
		}{{cb, "X"}, {ca, "Y"}, {cb, "Z"}} {
			if got, err := recvPayload(want.at); got != want.payload {
				t.Errorf("%s: got %q, %v", want.payload, got, err)
			}
		}
		if c := seg.ImpairCounts(); c.Held != 4 || c.Pending != 1 {
			t.Errorf("counts %v, want every frame held and W still pending", c)
		}
	})
}

// TestCorruptFramesFailFCS checks the hardware contract: a frame
// damaged on the wire fails the interface FCS check and is counted,
// never delivered — corruption on an Ethernet reaches protocols as
// loss, exactly like the real LANCE. The segment routes a frame by the
// address its sender wrote, so a damaged destination field still dies
// at the addressee's FCS check rather than somewhere else.
func TestCorruptFramesFailFCS(t *testing.T) {
	onSegment(t, Profile{Seed: 3, Impair: medium.Impairment{Corrupt: 1}}, func(seg *Segment) {
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
				t.Error(err)
				return
			}
		}
		// CRC32 detects every single-bit error, so all 20 must bounce.
		if !waitFor(t, seg.Clock(), "crc errors", func() bool { return i2.CRCErrs() == frames }) {
			return
		}
		if q := c2.Stream().QueuedBytes(); q != 0 {
			t.Errorf("%d bytes of corrupt frames reached the conversation", q)
		}
		if !strings.Contains(i2.Stats(), "crc-errs: 20") {
			t.Errorf("stats file does not report the crc errors:\n%s", i2.Stats())
		}
	})
}

// cloneConn opens the clone file and checks which conversation it got.
func cloneConn(t *testing.T, nsp *ns.Namespace, want string) (*ns.FD, bool) {
	t.Helper()
	ctl, err := nsp.Open("/net/ether0/clone", vfs.ORDWR)
	if err != nil {
		t.Error(err)
		return nil, false
	}
	buf := make([]byte, 16)
	if n, _ := ctl.Read(buf); string(buf[:n]) != want {
		ctl.Close()
		t.Errorf("clone gave conversation %q, want %q", buf[:n], want)
		return nil, false
	}
	return ctl, true
}

// TestStaleDataHandleCannotReadNextTenant is the Ethernet twin of the
// protocol devices' test of the same name: a conversation's files are
// closed, the clone file hands its slot to someone else, a frame
// arrives for the new tenant, and then the old data handle is used
// again. It must get a hangup, and the frame must still be there for
// the conversation it was sent to.
func TestStaleDataHandleCannotReadNextTenant(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
		nsp, ifc := etherNS(t, seg)
		tx, _ := seg.NewInterface("ether1").OpenConn()
		defer tx.Close()
		tx.SetType(0x900)

		ctl, ok := cloneConn(t, nsp, "1")
		if !ok {
			return
		}
		data, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			ctl.Close()
			t.Error(err)
			return
		}
		stale := data.Handle()
		data.Close()
		ctl.Close()

		ctl2, ok := cloneConn(t, nsp, "1")
		if !ok {
			return
		}
		defer ctl2.Close()
		if _, err := ctl2.WriteString("connect 2304"); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Transmit(ifc.Addr(), []byte("for the second tenant")); err != nil {
			t.Error(err)
			return
		}
		if !waitFor(t, seg.Clock(), "the frame to reach conversation 1", func() bool {
			b, _ := nsp.ReadFile("/net/ether0/1/stats")
			return strings.Contains(string(b), "conn 1: type 2304 in 1 ")
		}) {
			return
		}

		buf := make([]byte, 256)
		if n, err := stale.Read(buf, 0); !vfs.SameError(err, vfs.ErrHungup) {
			t.Errorf("read through a closed handle: %q, %v; want %v", buf[:n], err, vfs.ErrHungup)
		}
		frame := append(append([]byte{}, Broadcast[:]...), "x"...)
		if _, err := stale.Write(frame, 0); !vfs.SameError(err, vfs.ErrHungup) {
			t.Errorf("write through a closed handle: %v, want %v", err, vfs.ErrHungup)
		}
		// The frame is queued already, so this read does not park.
		data2, err := nsp.Open("/net/ether0/1/data", vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		defer data2.Close()
		n, err := data2.Read(buf)
		if got := fmt.Sprintf("%q, %v", buf[min(n, HdrLen):n], err); got != `"for the second tenant", <nil>` {
			t.Errorf("second tenant read %s", got)
		}
	})
}

// TestSecondCloseLeavesNextTenantAlone closes a handle a second time
// after its slot has changed hands. The reference it held is spent; the
// new tenant's reference count, and so its directory, must not move.
func TestSecondCloseLeavesNextTenantAlone(t *testing.T) {
	for _, file := range []string{"ctl", "data"} {
		onSegment(t, Profile{}, func(seg *Segment) {
			nsp, _ := etherNS(t, seg)
			ctl, ok := cloneConn(t, nsp, "1")
			if !ok {
				return
			}
			f, err := nsp.Open("/net/ether0/1/"+file, vfs.ORDWR)
			if err != nil {
				ctl.Close()
				t.Error(err)
				return
			}
			stale := f.Handle()
			f.Close()
			ctl.Close()

			ctl2, ok := cloneConn(t, nsp, "1")
			if !ok {
				return
			}
			defer ctl2.Close()
			stale.Close()
			if _, err := nsp.Stat("/net/ether0/1"); err != nil {
				t.Errorf("second close of a released %s handle took the next tenant's directory: %v", file, err)
			}
		})
	}
}

// TestConnCtlGrammar pins the §2.2 ctl vocabulary as netmsg parses it.
func TestConnCtlGrammar(t *testing.T) {
	onSegment(t, Profile{}, func(seg *Segment) {
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
	})
}
