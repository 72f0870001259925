package ip

import (
	"time"

	"repro/internal/block"
	"repro/internal/ether"
	"repro/internal/vclock"
)

// ARP over the simulated Ethernet: standard 28-byte IPv4-over-Ethernet
// request/reply packets (htype 1, ptype 0x0800). Unresolved traffic is
// held briefly while a request is outstanding, then flushed on reply.

const arpPktLen = 28

const (
	arpRequest = 1
	arpReply   = 2
)

// arpHold bounds packets queued per unresolved address.
const arpHold = 16

type arpCache struct {
	ifc *Ifc

	mu      vclock.Lock
	entries map[Addr]ether.Addr
	pending map[Addr][]*block.Block
}

func newArpCache(ifc *Ifc) *arpCache {
	a := &arpCache{
		ifc:     ifc,
		entries: make(map[Addr]ether.Addr),
		pending: make(map[Addr][]*block.Block),
	}
	a.mu.Init(ifc.stack.clk)
	return a
}

// send transmits an IP packet to nexthop, resolving its hardware
// address first if necessary. Ownership of pkt transfers: the cache
// either hands it to the wire, queues it for the reply, or frees it.
func (a *arpCache) send(nexthop Addr, pkt *block.Block) error {
	a.mu.Lock()
	hw, ok := a.entries[nexthop]
	if ok {
		a.mu.Unlock()
		return a.ifc.conn.TransmitBlock(hw, pkt)
	}
	q := a.pending[nexthop]
	if len(q) < arpHold {
		a.pending[nexthop] = append(q, pkt)
	} else {
		// Hold queue full: dropped like real ARP, but counted.
		a.ifc.stack.ArpDrops.Add(1)
		pkt.Free()
	}
	first := len(q) == 0
	a.mu.Unlock()
	if first {
		a.request(nexthop)
		// Re-request a few times in case the first broadcast was
		// lost on a lossy medium; then give up like real ARP, counting
		// what was held.
		ck := a.ifc.stack.clk
		ck.Go(func() {
			for range 3 {
				ck.Sleep(50 * time.Millisecond)
				a.mu.Lock()
				_, resolved := a.entries[nexthop]
				waiting := len(a.pending[nexthop]) > 0
				a.mu.Unlock()
				if resolved || !waiting {
					return
				}
				a.request(nexthop)
			}
			a.mu.Lock()
			abandoned := a.pending[nexthop]
			delete(a.pending, nexthop)
			a.mu.Unlock()
			a.ifc.stack.ArpDrops.Add(int64(len(abandoned)))
			for _, b := range abandoned {
				b.Free()
			}
		})
	}
	return nil
}

// request broadcasts a who-has.
func (a *arpCache) request(target Addr) {
	p := make([]byte, arpPktLen)
	putArpHeader(p, arpRequest)
	hw := a.ifc.ifc.Addr()
	copy(p[8:14], hw[:])
	copy(p[14:18], a.ifc.addr[:])
	// target hardware unknown (zero); target protocol address:
	copy(p[24:28], target[:])
	a.ifc.arpc.Transmit(ether.Broadcast, p)
}

func putArpHeader(p []byte, op int) {
	p[0], p[1] = 0, 1 // htype ethernet
	p[2], p[3] = 0x08, 0x00
	p[4], p[5] = 6, 4 // hlen, plen
	p[6], p[7] = byte(op>>8), byte(op)
}

// recvARP handles a received ARP frame: learn the sender, answer
// requests for our address, flush pending traffic.
func (a *arpCache) recvARP(frame []byte) {
	if len(frame) < ether.HdrLen+arpPktLen {
		return
	}
	p := frame[ether.HdrLen:]
	op := int(p[6])<<8 | int(p[7])
	var senderHW ether.Addr
	copy(senderHW[:], p[8:14])
	var senderIP, targetIP Addr
	copy(senderIP[:], p[14:18])
	copy(targetIP[:], p[24:28])

	a.mu.Lock()
	a.entries[senderIP] = senderHW
	queued := a.pending[senderIP]
	delete(a.pending, senderIP)
	a.mu.Unlock()
	for _, pkt := range queued {
		a.ifc.conn.TransmitBlock(senderHW, pkt)
	}

	if op == arpRequest && targetIP == a.ifc.addr {
		r := make([]byte, arpPktLen)
		putArpHeader(r, arpReply)
		hw := a.ifc.ifc.Addr()
		copy(r[8:14], hw[:])
		copy(r[14:18], a.ifc.addr[:])
		copy(r[18:24], senderHW[:])
		copy(r[24:28], senderIP[:])
		a.ifc.arpc.Transmit(senderHW, r)
	}
}
