// Command snoopy is the snooping diagnostic of §2.2: the Ethernet
// driver provides "diagnostic interfaces for snooping software" —
// writing "promiscuous" and "connect -1" to a conversation's ctl file
// makes it receive a copy of every frame on the wire. snoopy attaches
// such a conversation on the paper world's office Ethernet, stirs up
// some traffic, and decodes what it captures: Ethernet, ARP, IP, IL,
// TCP, and UDP headers.
//
//	go run ./cmd/snoopy -frames 20
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/netmsg"
	"repro/internal/streams"
	"repro/internal/vfs"
)

func main() {
	frames := flag.Int("frames", 16, "frames to capture")
	flag.Parse()

	w, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snoopy:", err)
		os.Exit(1)
	}
	defer w.Close()
	aroot := w.Machine("a-root") // a quiet machine to snoop from

	// The §2.2 incantation, through the file tree.
	ctl, err := aroot.NS.Open("/net/ether0/clone", vfs.ORDWR)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snoopy:", err)
		os.Exit(1)
	}
	defer ctl.Close()
	buf := make([]byte, 16)
	n, _ := ctl.Read(buf)
	dir := "/net/ether0/" + string(buf[:n])
	ctl.WriteString(netmsg.Connect("-1"))
	ctl.WriteString(netmsg.Promiscuous())
	data, err := aroot.NS.Open(dir+"/data", vfs.OREAD)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snoopy:", err)
		os.Exit(1)
	}
	defer data.Close()

	// Stir up traffic: an IL echo, a TCP dial, and a DNS query. The
	// generator is joined to main's lifetime through stop so the world
	// is not torn down under a dial in flight.
	stop := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		musca := w.Machine("musca")
		for {
			if conn, err := dialer.Dial(musca.NS, "il!helix!echo"); err == nil {
				conn.Write([]byte("snooped!"))
				b := make([]byte, 64)
				conn.Read(b)
				conn.Close()
			}
			if conn, err := dialer.Dial(musca.NS, "tcp!helix!discard"); err == nil {
				conn.Write([]byte("tcp payload"))
				conn.Close()
			}
			musca.Resolver.LookupA("p9auth.research.bell-labs.com")
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond): //netvet:ignore realtime paces reads of the real process's trace output
			}
		}
	}()

	frame := make([]byte, 4096)
	for i := 0; i < *frames; i++ {
		n, err := data.Read(frame)
		if err != nil || n == 0 {
			break
		}
		fmt.Println(decode(frame[:n]))
	}
	close(stop)
	<-trafficDone
}

// decode renders one captured frame, layer by layer.
func decode(f []byte) string {
	if len(f) < ether.HdrLen {
		return fmt.Sprintf("runt frame (%d bytes)", len(f))
	}
	var dst, src ether.Addr
	copy(dst[:], f[0:6])
	copy(src[:], f[6:12])
	etype := int(f[12])<<8 | int(f[13])
	head := fmt.Sprintf("ether(%s -> %s", src, dst)
	payload := f[ether.HdrLen:]
	switch etype {
	case ether.TypeARP:
		return head + ") " + decodeARP(payload)
	case ether.TypeIP:
		return head + ") " + decodeIP(payload)
	default:
		return fmt.Sprintf("%s type %#x) %d bytes", head, etype, len(payload))
	}
}

func decodeARP(p []byte) string {
	if len(p) < 28 {
		return "arp(short)"
	}
	var sip, tip ip.Addr
	copy(sip[:], p[14:18])
	copy(tip[:], p[24:28])
	if p[7] == 2 {
		var hw ether.Addr
		copy(hw[:], p[8:14])
		return fmt.Sprintf("arp(reply %s is-at %s)", sip, hw)
	}
	return fmt.Sprintf("arp(request who-has %s tell %s)", tip, sip)
}

func decodeIP(p []byte) string {
	h, body, err := ip.Unmarshal(p)
	if err != nil {
		return "ip(bad header)"
	}
	head := fmt.Sprintf("ip(%s -> %s ttl %d", h.Src, h.Dst, h.TTL)
	switch h.Proto {
	case ip.ProtoIL:
		return head + ") " + decodeIL(body)
	case ip.ProtoTCP:
		return head + ") " + decodeTCP(body)
	case ip.ProtoUDP:
		return head + ") " + decodeUDP(body)
	default:
		return fmt.Sprintf("%s proto %d) %d bytes", head, h.Proto, len(body))
	}
}

var ilTypes = []string{"Sync", "Data", "Ack", "Query", "State", "Close"}

func decodeIL(p []byte) string {
	if len(p) < 18 {
		return "il(short)"
	}
	typ := int(p[4])
	name := "?"
	if typ < len(ilTypes) {
		name = ilTypes[typ]
	}
	src := int(p[6])<<8 | int(p[7])
	dst := int(p[8])<<8 | int(p[9])
	id := uint32(p[10])<<24 | uint32(p[11])<<16 | uint32(p[12])<<8 | uint32(p[13])
	ack := uint32(p[14])<<24 | uint32(p[15])<<16 | uint32(p[16])<<8 | uint32(p[17])
	return fmt.Sprintf("il(%s %d -> %d id %d ack %d, %d data)",
		name, src, dst, id, ack, len(p)-18) + discipline(p[18:])
}

// discipline annotates a transport payload dressed by the batch or
// compress line disciplines (§2.4): the modules' wire formats are
// self-describing enough to name from a raw capture.
func discipline(body []byte) string {
	if d, ok := streams.SnoopPayload(body); ok {
		return " " + d
	}
	return ""
}

func decodeTCP(p []byte) string {
	if len(p) < 18 {
		return "tcp(short)"
	}
	src := int(p[0])<<8 | int(p[1])
	dst := int(p[2])<<8 | int(p[3])
	flags := p[12]
	fl := ""
	for i, c := range []string{"F", "S", "R", "A"} {
		if flags&(1<<i) != 0 {
			fl += c
		}
	}
	return fmt.Sprintf("tcp(%d -> %d %s, %d data)", src, dst, fl, len(p)-18) + discipline(p[18:])
}

func decodeUDP(p []byte) string {
	if len(p) < 8 {
		return "udp(short)"
	}
	src := int(p[0])<<8 | int(p[1])
	dst := int(p[2])<<8 | int(p[3])
	kind := ""
	if src == 53 || dst == 53 {
		kind = " dns"
	}
	return fmt.Sprintf("udp(%d -> %d%s, %d data)", src, dst, kind, len(p)-8)
}
