package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialer"
	"repro/internal/ip"
	"repro/internal/ns"
)

// TestAnnounceAllServices reproduces §5.2: "if it does not contain a
// service, the announcement is for all services not explicitly
// announced. Thus, one can easily write the equivalent of the inetd
// program without having to announce each separate service."
func TestAnnounceAllServices(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		helix := w.Machine("helix")

		// The inetd equivalent: one catch-all announcement; the handler
		// learns the requested service from the new connection's local
		// address and dispatches on it.
		l, err := dialer.Announce(musca.NS, "il!*")
		if err != nil {
			return err
		}
		defer l.Close()
		w.Clock().Go(func() {
			for {
				call, err := l.Listen()
				if err != nil {
					return
				}
				conn, err := call.Accept()
				if err != nil {
					continue
				}
				local := conn.LocalAddr(musca.NS)
				_, port, _ := strings.Cut(local, "!")
				conn.Write([]byte("service " + port))
				conn.Close()
			}
		})

		// Dial two different unannounced services: the same listener
		// takes both, and each connection knows which was asked for.
		for _, port := range []string{"12345", "54321"} {
			conn, err := dialer.Dial(helix.NS, "il!musca!"+port)
			if err != nil {
				return fmt.Errorf("dial unannounced service %s: %w", port, err)
			}
			buf := make([]byte, 64)
			n, err := conn.Read(buf)
			conn.Close()
			if err != nil || string(buf[:n]) != "service "+port {
				return fmt.Errorf("service %s answered %q, %v", port, buf[:n], err)
			}
		}
		return nil
	})
}

func TestExplicitAnnouncementBeatsCatchAll(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		helix := w.Machine("helix")
		// Each listener answers every call with its own name.
		for _, a := range []struct{ addr, answer string }{
			{"tcp!*", "catch-all"},
			{"tcp!*!daytime", "explicit"},
		} {
			l, err := dialer.Announce(musca.NS, a.addr)
			if err != nil {
				return err
			}
			defer l.Close()
			w.Clock().Go(func() {
				for {
					call, err := l.Listen()
					if err != nil {
						return
					}
					c, err := call.Accept()
					if err != nil {
						continue
					}
					c.Write([]byte(a.answer))
					c.Close()
				}
			})
		}
		conn, err := dialer.Dial(helix.NS, "tcp!musca!daytime")
		if err != nil {
			return err
		}
		defer conn.Close()
		buf := make([]byte, 32)
		n, _ := conn.Read(buf)
		if string(buf[:n]) != "explicit" {
			t.Errorf("explicitly announced service answered by %q", buf[:n])
		}
		return nil
	})
}

// subnetNdb describes the multi-subnet office of §4.1's example
// entries: two floors behind gateways, as the ipnet entries declare.
const subnetNdb = `ipnet=office ip=135.104.0.0 ipmask=255.255.255.0
ipnet=third-floor ip=135.104.51.0
	ipgw=135.104.51.1
ipnet=fourth-floor ip=135.104.52.0
	ipgw=135.104.52.1

sys=floor3-host ip=135.104.51.2
sys=floor4-host ip=135.104.52.2
sys=floors-gw ip=135.104.51.1
	ip=135.104.52.1

il=echo port=56552
tcp=echo port=7
`

// TestSubnetGatewayRouting builds the two-floor topology and checks
// that IL traffic crosses the IP gateway, with routes taken from the
// database's ipgw attributes at boot.
func TestSubnetGatewayRouting(t *testing.T) {
	w, err := NewWorld(subnetNdb)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.AddEther("floor3", FastProfiles().Ether)
	w.AddEther("floor4", FastProfiles().Ether)

	gw, err := w.NewMachine(MachineConfig{
		Name:    "floors-gw",
		Ethers:  []string{"floor3", "floor4"},
		Forward: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := w.NewMachine(MachineConfig{Name: "floor3-host", Ethers: []string{"floor3"}})
	if err != nil {
		t.Fatal(err)
	}
	h4, err := w.NewMachine(MachineConfig{Name: "floor4-host", Ethers: []string{"floor4"}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := h4.ServeEcho("il!*!echo"); err != nil {
		t.Fatal(err)
	}
	conn, err := dialer.Dial(h3.NS, "il!floor4-host!echo")
	if err != nil {
		t.Fatalf("cross-subnet dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("across the floors"))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "across the floors" {
		t.Fatalf("cross-subnet echo %q, %v", buf[:n], err)
	}
	if gw.Stack.Forwarded.Load() == 0 {
		t.Error("gateway forwarded nothing; traffic took a phantom path")
	}
}

// TestSubnetMaskFromNdb checks that boot derives interface masks from
// the ipnet entries (the office /24 under a class-B address).
func TestSubnetMaskFromNdb(t *testing.T) {
	w, err := NewWorld(subnetNdb)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.AddEther("floor3", FastProfiles().Ether)
	h3, err := w.NewMachine(MachineConfig{Name: "floor3-host", Ethers: []string{"floor3"}})
	if err != nil {
		t.Fatal(err)
	}
	// A same-/24 destination must be directly routable, and the
	// database's ipgw supplies the default route beyond it.
	near, _ := ip.ParseAddr("135.104.51.9")
	if _, err := h3.Stack.LocalAddrFor(near); err != nil {
		t.Errorf("same subnet unroutable: %v", err)
	}
	far, _ := ip.ParseAddr("135.104.52.9")
	if _, err := h3.Stack.LocalAddrFor(far); err != nil {
		t.Errorf("ipgw default route missing: %v", err)
	}
}

// TestListenerServiceDispatch drives Machine.Serve's listener loop
// with interleaved calls on two networks.
func TestListenerServiceDispatch(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		helix := w.Machine("helix")
		for _, addr := range []string{"il!*!daytime", "dk!*!daytime"} {
			if _, err := musca.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
				conn.Write([]byte("Thu Jan  7 1993"))
			}); err != nil {
				return err
			}
		}
		for _, dest := range []string{"il!musca!daytime", "dk!nj/astro/musca!daytime", "net!musca!daytime"} {
			conn, err := dialer.Dial(helix.NS, dest)
			if err != nil {
				t.Errorf("dial %s: %v", dest, err)
				continue
			}
			buf := make([]byte, 32)
			n, err := conn.Read(buf)
			if err != nil || !strings.Contains(string(buf[:n]), "1993") {
				t.Errorf("%s: %q, %v", dest, buf[:n], err)
			}
			conn.Close()
		}
		return nil
	})
}

func TestIPStatsFile(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		conn, err := dialer.Dial(musca.NS, "il!helix!echo")
		if err != nil {
			return err
		}
		err = echo(conn, "count")
		conn.Close()
		if err != nil {
			return err
		}
		b, err := musca.NS.ReadFile("/net/ipstats")
		if err != nil {
			return err
		}
		s := string(b)
		if !strings.Contains(s, "in: ") || !strings.Contains(s, "out: ") {
			t.Errorf("ipstats text %q", s)
		}
		if strings.Contains(s, "out: 0\n") {
			t.Error("ipstats recorded no output packets after a dial")
		}
		return nil
	})
}
