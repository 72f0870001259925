package streams

import (
	"io"

	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Line dresses an existing message connection in a stream: user reads
// and writes pass through a pushable module chain (batch, compress,
// trace, frame) on their way to and from the underlying transport.
// This is how a conversation gains line disciplines after the fact —
// the protocol engines keep their own receive streams, and the Line
// splices a second, operator-configured stream on top, the way the
// paper pushes URP onto a Datakit channel (§2.4.1).
//
// Downstream, the device end coalesces a delimited message's blocks
// and issues one conn.Write per wire block; upstream, a pump kernel
// process (clock-registered, so virtual time works) reads the
// transport and injects each read as a delimited block. Modules that
// change the wire format (batch, compress) restore message boundaries
// themselves, so a Line across a conversation preserves the
// message-per-read contract as long as both ends push the same
// modules in the same order.
type Line struct {
	s    *Stream
	conn io.ReadWriteCloser

	// Device-end assembly of a multi-block message into one write.
	wpart []byte
}

// lineBufSize is the pump's read buffer: big enough for any framed,
// batched, compressed wire block a well-configured conversation
// produces. A larger foreign message is split across reads; the
// module reassemblers do not care, since frames carry their own
// boundaries.
const lineBufSize = 128 * 1024

// NewLine wraps conn in a stream with no modules pushed. The pump
// goroutine is created with ck.Go, so under a virtual clock the Line
// is part of the deterministic schedule. limit <= 0 selects
// DefaultLimit.
func NewLine(conn io.ReadWriteCloser, ck vclock.Clock, limit int) *Line {
	l := &Line{conn: conn}
	l.s = NewClock(limit, ck, l.deviceOut)
	clk := l.s.Clock()
	clk.Go(func() {
		buf := make([]byte, lineBufSize)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				b := NewBlock(buf[:n])
				b.Delim = true
				l.s.DeviceUp(b)
			}
			if err != nil {
				l.s.HangupUp()
				return
			}
		}
	})
	return l
}

// deviceOut is the stream's device end: it runs on the put chain's
// goroutine (under the stream's config read lock) and hands each
// complete wire block to the transport in one write.
//
//netvet:owns b
func (l *Line) deviceOut(b *Block) {
	if b.Type != BlockData {
		b.Free()
		return
	}
	if len(l.wpart) == 0 && b.Delim {
		if b.Len() > 0 {
			l.conn.Write(b.Bytes())
		}
		b.Free()
		return
	}
	l.wpart = append(l.wpart, b.Bytes()...)
	delim := b.Delim
	b.Free()
	if !delim {
		return
	}
	l.conn.Write(l.wpart)
	l.wpart = l.wpart[:0]
}

// Read returns the next upstream data, stopping at a message boundary.
func (l *Line) Read(p []byte) (int, error) { return l.s.Read(p) }

// Write sends p down the module chain as one delimited message.
func (l *Line) Write(p []byte) (int, error) { return l.s.Write(p) }

// WriteCtl sends a control request down the stream ("push batch 2048
// 2ms", "pop", "hangup", or module-specific commands).
func (l *Line) WriteCtl(cmd string) error { return l.s.WriteCtl(cmd) }

// Push pushes module specs bottom-up: Push("compress", "batch") puts
// compress nearer the device and batch on top, so messages coalesce
// first and the coalesced block compresses once.
func (l *Line) Push(specs ...string) error {
	for _, spec := range specs {
		if err := l.s.WriteCtl(netmsg.Push(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Stream exposes the underlying stream (tests, stats plumbing).
func (l *Line) Stream() *Stream { return l.s }

// ModuleStats returns the stats groups of the pushed modules, top
// first — the conversation's per-module bill.
func (l *Line) ModuleStats() []*obs.Group { return l.s.ModuleStats() }

// StatsText renders every module's stats group, the text a
// conversation's stats file serves.
func (l *Line) StatsText() string {
	var out []byte
	for _, g := range l.s.ModuleStats() {
		out = append(out, g.Render()...)
	}
	return string(out)
}

// Close flushes the module chain (pops run their Drain hooks, so a
// pending batch window still reaches the transport) and closes the
// underlying connection, which stops the pump.
func (l *Line) Close() error {
	l.s.Close()
	return l.conn.Close()
}
