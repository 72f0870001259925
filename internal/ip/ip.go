// Package ip implements the Internet protocol substrate of §2.3: IPv4
// headers with real checksums over the simulated Ethernet, ARP
// resolution (the "user-level protocols like ARP" of the LANCE driver,
// here a kernel module on its own ether conversation), subnet routing
// with ndb-style gateways, optional forwarding, and protocol
// demultiplexing for the transport protocols (TCP, UDP, IL) layered
// above. IP fragmentation is not implemented: senders respect the
// interface MTU, as documented in DESIGN.md.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/block"
)

// Addr is an IPv4 address.
type Addr [4]byte

// String formats in dotted decimal.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// Mask applies a netmask.
func (a Addr) Mask(m Addr) Addr {
	var r Addr
	for i := range a {
		r[i] = a[i] & m[i]
	}
	return r
}

// ErrBadAddr reports an unparsable address.
var ErrBadAddr = errors.New("ip: bad address")

// ParseAddr parses dotted decimal.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return a, ErrBadAddr
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return a, ErrBadAddr
		}
		a[i] = byte(v)
	}
	return a, nil
}

// ClassMask returns the classful default mask for a, as ndb assumes
// when no ipmask attribute is given.
func ClassMask(a Addr) Addr {
	switch {
	case a[0] < 128:
		return Addr{255, 0, 0, 0}
	case a[0] < 192:
		return Addr{255, 255, 0, 0}
	default:
		return Addr{255, 255, 255, 0}
	}
}

// ParseMask parses a netmask in dotted decimal.
func ParseMask(s string) (Addr, error) { return ParseAddr(s) }

// Protocol numbers carried in the IP header.
const (
	ProtoTCP = 6
	ProtoUDP = 17
	// ProtoIL is IL's IP protocol number, 40, as allocated to it.
	ProtoIL = 40
)

// HdrLen is the length of our option-less IPv4 header.
const HdrLen = 20

// DefaultTTL is the initial time-to-live.
const DefaultTTL = 64

// Header is an IPv4 packet header (no options).
type Header struct {
	Len   uint16 // total length including header
	ID    uint16
	TTL   uint8
	Proto uint8
	Src   Addr
	Dst   Addr
}

// Marshaling errors.
var (
	ErrShortPacket = errors.New("ip: short packet")
	ErrBadVersion  = errors.New("ip: bad version")
	ErrBadChecksum = errors.New("ip: bad header checksum")
	ErrBadLength   = errors.New("ip: bad length field")
)

// Checksum computes the Internet checksum of p. Per RFC 1071, the
// ones-complement sum may be taken over wider words and folded down, so
// p is summed as 64-bit big-endian words, four an iteration, each add's
// carry going into the next (bits.Add64) and the last one back in
// end-around; the sum then folds to 16 bits. On the 8 KiB payloads IL
// carries for 9P that is about 6x the byte-pair loop, and 1.9x summing
// 32-bit words into a 64-bit register (BenchmarkChecksum8K).
func Checksum(p []byte) uint16 {
	var sum, c uint64
	for len(p) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p[24:]), c)
		p = p[32:]
	}
	for len(p) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(p), c)
		p = p[8:]
	}
	sum, c = bits.Add64(sum, 0, c)
	sum += c // a carry out of that add left sum 0, so this one cannot carry
	sum = sum&0xffffffff + sum>>32
	for len(p) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(p))
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint64(p[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Marshal prepends the header to payload and returns the full packet.
func (h *Header) Marshal(payload []byte) []byte {
	pkt := make([]byte, HdrLen+len(payload))
	pkt[0] = 0x45 // version 4, ihl 5
	total := uint16(HdrLen + len(payload))
	pkt[2] = byte(total >> 8)
	pkt[3] = byte(total)
	pkt[4] = byte(h.ID >> 8)
	pkt[5] = byte(h.ID)
	pkt[8] = h.TTL
	pkt[9] = h.Proto
	copy(pkt[12:16], h.Src[:])
	copy(pkt[16:20], h.Dst[:])
	ck := Checksum(pkt[:HdrLen])
	pkt[10] = byte(ck >> 8)
	pkt[11] = byte(ck)
	copy(pkt[HdrLen:], payload)
	return pkt
}

// PrependTo pushes the header into b's headroom in place — the block
// discipline's alternative to Marshal's allocate-and-copy. b's window
// must hold the payload; afterwards it holds the whole packet.
func (h *Header) PrependTo(b *block.Block) {
	total := uint16(HdrLen + b.Len())
	pkt := b.Prepend(HdrLen)
	pkt[0] = 0x45 // version 4, ihl 5
	pkt[1] = 0
	pkt[2] = byte(total >> 8)
	pkt[3] = byte(total)
	pkt[4] = byte(h.ID >> 8)
	pkt[5] = byte(h.ID)
	pkt[6] = 0
	pkt[7] = 0
	pkt[8] = h.TTL
	pkt[9] = h.Proto
	pkt[10] = 0
	pkt[11] = 0
	copy(pkt[12:16], h.Src[:])
	copy(pkt[16:20], h.Dst[:])
	ck := Checksum(pkt[:HdrLen])
	pkt[10] = byte(ck >> 8)
	pkt[11] = byte(ck)
}

// Unmarshal validates a packet and returns its header and payload.
func Unmarshal(pkt []byte) (Header, []byte, error) {
	var h Header
	if len(pkt) < HdrLen {
		return h, nil, ErrShortPacket
	}
	if pkt[0] != 0x45 {
		return h, nil, ErrBadVersion
	}
	if Checksum(pkt[:HdrLen]) != 0 {
		return h, nil, ErrBadChecksum
	}
	h.Len = uint16(pkt[2])<<8 | uint16(pkt[3])
	if int(h.Len) > len(pkt) || h.Len < HdrLen {
		return h, nil, ErrBadLength
	}
	h.ID = uint16(pkt[4])<<8 | uint16(pkt[5])
	h.TTL = pkt[8]
	h.Proto = pkt[9]
	copy(h.Src[:], pkt[12:16])
	copy(h.Dst[:], pkt[16:20])
	return h, pkt[HdrLen:h.Len], nil
}
