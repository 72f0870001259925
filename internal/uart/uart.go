// Package uart implements the serial-line device of §2.2: "Simple
// device drivers serve a single level directory containing just a few
// files; for example, we represent each UART by a data and a control
// file ... writing the string b1200 to /dev/eia1ctl sets the line to
// 1200 baud." Programs like stty are replaced by echo and shell
// redirection.
//
// A Line is a full-duplex serial wire between two machines (the
// paper's "9600 baud serial lines provide slow links to users at
// home"); each end is a stream whose device side books its bytes on
// the transmitter at the configured baud rate (medium.Pacer) and puts
// them on a delay line (medium.Delay), the wire every medium here
// shares: the line's clock event hands them to the peer's stream when
// their last bit has left, so a write returns once its bytes are on the
// wire, not once they have crossed it. Serial wires carry bytes, not
// messages, so a 9P mount over a UART needs delimiters restored — push
// the "frame" stream module or use the ninep marshaling adapter,
// exactly the §2.1/§2.4 arrangement.
package uart

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/devtree"
	"repro/internal/medium"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// DefaultBaud is the line speed before any ctl command.
const DefaultBaud = 9600

// Line is a serial wire between two Ends.
type Line struct {
	a, b *End
}

// NewLine creates a line whose ends pace on ck; both start at
// DefaultBaud.
func NewLine(ck vclock.Clock) *Line {
	l := &Line{}
	l.a = newEnd(ck)
	l.b = newEnd(ck)
	l.a.peer, l.b.peer = l.b, l.a
	return l
}

// Ends returns the two ends.
func (l *Line) Ends() (*End, *End) { return l.a, l.b }

// Close hangs up both ends.
func (l *Line) Close() {
	l.a.close()
	l.b.close()
}

// End is one machine's UART.
type End struct {
	peer *End
	ck   vclock.Clock
	baud atomic.Int64

	tx     medium.Pacer                  // the transmitter's serialization point
	line   *medium.Delay[*streams.Block] // the wire, whose event receives for the peer
	stream *streams.Stream
	closed atomic.Bool
}

// lineDepth is how many blocks a writer may have on the wire ahead of
// the transmitter before its write parks.
const lineDepth = 64

func newEnd(ck vclock.Clock) *End {
	e := &End{ck: ck}
	e.baud.Store(DefaultBaud)
	e.tx.Init(ck)
	e.stream = streams.NewClock(0, ck, e.transmit)
	e.line = medium.NewDelay(ck, lineDepth, e.arrive)
	return e
}

// Stream returns the end's stream, onto which processing modules may
// be pushed ("push frame" restores message delimiters over the raw
// byte line).
func (e *End) Stream() *streams.Stream { return e.stream }

// SetBaud changes the line speed (the ctl "b" command).
func (e *End) SetBaud(baud int) error {
	if baud <= 0 || baud > 10_000_000 {
		return vfs.ErrBadCtl
	}
	e.baud.Store(int64(baud))
	return nil
}

// Baud returns the current speed.
func (e *End) Baud() int { return int(e.baud.Load()) }

// transmit is the device-end output put routine: it books the block's
// bytes at the line rate (10 bits per byte: start + 8 data + stop) and
// puts the block on the wire to arrive when its last bit has left. The
// writer waits while the wire holds lineDepth blocks, and, as hardware
// flow control would hold it, while the peer's stream has no room for
// the block beside what is already on the wire.
func (e *End) transmit(b *streams.Block) {
	n := b.Len()
	if b.Type != streams.BlockData || n == 0 || e.peer.stream.Reserve(n) != nil {
		b.Free()
		return
	}
	free := e.tx.Reserve(e.ck.Now(), medium.TransmitTime(n*10, e.baud.Load()))
	if !e.line.Send(b, free) {
		b.Free() // the end has hung up
	}
}

// arrive runs on the wire's clock event: it hands the block, which the
// writer's credit has room for, to the peer as an undelimited byte
// arrival — serial wires have no record boundaries. The block itself
// crosses the wire, no copy.
func (e *End) arrive(b *streams.Block) {
	if e.peer.closed.Load() {
		b.Free()
		return
	}
	b.Delim = false
	e.peer.stream.Deliver(b)
}

func (e *End) close() {
	if e.closed.Swap(true) {
		return
	}
	for _, b := range e.line.Close() {
		b.Free()
	}
	e.stream.HangupUp()
	e.stream.Close()
}

// Read drains received bytes.
func (e *End) Read(p []byte) (int, error) { return e.stream.Read(p) }

// Write queues bytes for transmission.
func (e *End) Write(p []byte) (int, error) { return e.stream.Write(p) }

// Close hangs up this end (the line itself stays for the peer to
// notice EOF).
func (e *End) Close() error {
	e.close()
	return nil
}

// Dev serves UARTs as the flat /dev files of the paper:
//
//	% ls -l /dev/eia*
//	--rw-rw-rw- t 0 bootes bootes 0 Jul 16 17:28 eia1
//	--rw-rw-rw- t 0 bootes bootes 0 Jul 16 17:28 eia1ctl
type Dev struct {
	owner string

	mu   vclock.Lock
	eias map[int]*End
}

var _ vfs.Device = (*Dev)(nil)

// NewDev creates an empty UART device on ck.
func NewDev(owner string, ck vclock.Clock) *Dev {
	d := &Dev{owner: owner, eias: make(map[int]*End)}
	d.mu.Init(ck)
	return d
}

// Add attaches a line end as eia<n>.
func (d *Dev) Add(n int, e *End) {
	d.mu.Lock()
	d.eias[n] = e
	d.mu.Unlock()
}

// Name implements vfs.Device.
func (d *Dev) Name() string { return "eia" }

// Attach implements vfs.Device.
func (d *Dev) Attach(spec string) (vfs.Node, error) {
	if spec != "" {
		return nil, vfs.ErrBadSpec
	}
	root := &devtree.DirNode{Entry: devtree.MkDir("eia", d.owner, 0555)}
	root.List = func() ([]vfs.Dir, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		var ents []vfs.Dir
		for _, n := range slices.Sorted(maps.Keys(d.eias)) {
			ents = append(ents,
				devtree.MkFile(fmt.Sprintf("eia%d", n), d.owner, 0666),
				devtree.MkFile(fmt.Sprintf("eia%dctl", n), d.owner, 0666))
		}
		return ents, nil
	}
	root.Lookup = func(name string) (vfs.Node, error) {
		ctl := false
		numStr, ok := strings.CutPrefix(name, "eia")
		if !ok {
			return nil, vfs.ErrNotExist
		}
		if s, isCtl := strings.CutSuffix(numStr, "ctl"); isCtl {
			numStr, ctl = s, true
		}
		n, err := strconv.Atoi(numStr)
		if err != nil {
			return nil, vfs.ErrNotExist
		}
		d.mu.Lock()
		e := d.eias[n]
		d.mu.Unlock()
		if e == nil {
			return nil, vfs.ErrNotExist
		}
		if ctl {
			return d.ctlNode(name, e), nil
		}
		return d.dataNode(name, e), nil
	}
	return root, nil
}

// ctlNode parses the ASCII control strings: b<baud> sets the speed;
// the word-format controls of real eia ctl files (l8, pn, s1, ...)
// are accepted and ignored, and push/pop/hangup go to the stream.
func (d *Dev) ctlNode(name string, e *End) vfs.Node {
	return &devtree.FileNode{
		Entry: devtree.MkFile(name, d.owner, 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			return &devtree.CtlHandle{
				Get: func() (string, error) {
					return fmt.Sprintf("b%d", e.Baud()), nil
				},
				Cmd: func(cmd string) error { return e.ctl(cmd) },
			}, nil
		},
	}
}

func (e *End) ctl(cmd string) error {
	if cmd == "" {
		return vfs.ErrBadCtl
	}
	switch cmd[0] {
	case 'b':
		baud, err := strconv.Atoi(cmd[1:])
		if err != nil {
			return vfs.ErrBadCtl
		}
		return e.SetBaud(baud)
	case 'l', 'm', 'f', 'd', 'r', 'k', 'D', 'K':
		// Line-discipline controls: accepted, no simulation effect.
		return nil
	}
	switch {
	case cmd == "pop" || cmd == "hangup" || len(cmd) > 5 && cmd[:5] == "push ":
		// Stream configuration requests go to the stream system
		// (§2.4.1).
		return e.stream.WriteCtl(cmd)
	case cmd[0] == 'p' || cmd[0] == 's':
		// pn/pe/po parity, s1/s2 stop bits: accepted, no effect.
		return nil
	default:
		return vfs.ErrBadCtl
	}
}

func (d *Dev) dataNode(name string, e *End) vfs.Node {
	return &devtree.FileNode{
		Entry: devtree.MkFile(name, d.owner, 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			return uartHandle{e: e}, nil
		},
	}
}

type uartHandle struct{ e *End }

var _ vfs.Handle = uartHandle{}

// Read implements vfs.Handle (offset ignored: a stream).
func (h uartHandle) Read(p []byte, off int64) (int, error) { return h.e.Read(p) }

// Write implements vfs.Handle.
func (h uartHandle) Write(p []byte, off int64) (int, error) { return h.e.Write(p) }

// Close implements vfs.Handle; the line persists (modems hang up via
// ctl, not by closing the file).
func (h uartHandle) Close() error { return nil }
