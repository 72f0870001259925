// Package uart implements the serial-line device of §2.2: "Simple
// device drivers serve a single level directory containing just a few
// files; for example, we represent each UART by a data and a control
// file ... writing the string b1200 to /dev/eia1ctl sets the line to
// 1200 baud." Programs like stty are replaced by echo and shell
// redirection.
//
// A Line is a full-duplex serial wire between two machines (the
// paper's "9600 baud serial lines provide slow links to users at
// home"); each end is a stream whose device side paces bytes at the
// configured baud rate. Serial wires carry bytes, not messages, so a
// 9P mount over a UART needs delimiters restored — push the "frame"
// stream module or use the ninep marshaling adapter, exactly the
// §2.1/§2.4 arrangement.
package uart

import (
	"fmt"
	"strconv"
	"sync"
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

// NewLine creates a line; both ends start at DefaultBaud.
func NewLine() *Line {
	return NewLineClock(nil)
}

// NewLineClock is NewLine with the ends' pacing on an explicit clock;
// nil means the real clock.
func NewLineClock(ck vclock.Clock) *Line {
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

	tx medium.Pacer // the transmitter's serialization point

	mu     sync.Mutex
	stream *streams.Stream
	closed bool

	inBytes  atomic.Int64
	outBytes atomic.Int64
}

func newEnd(ck vclock.Clock) *End {
	e := &End{ck: vclock.Or(ck)}
	e.baud.Store(DefaultBaud)
	e.stream = streams.NewClock(0, ck, e.transmit)
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

// transmit is the device-end output put routine: it paces the block's
// bytes at the line rate (10 bits per byte: start + 8 data + stop) and
// delivers them to the peer as an undelimited byte arrival — serial
// wires have no record boundaries.
func (e *End) transmit(b *streams.Block) {
	n := b.Len()
	if b.Type != streams.BlockData || n == 0 {
		b.Free()
		return
	}
	free := e.tx.Reserve(e.ck.Now(), medium.TransmitTime(n*10, e.baud.Load()))
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		b.Free()
		return
	}
	e.ck.SleepUntil(free)
	e.outBytes.Add(int64(n))
	peer := e.peer
	peer.mu.Lock()
	s := peer.stream
	closed = peer.closed
	peer.mu.Unlock()
	if closed {
		b.Free()
		return
	}
	peer.inBytes.Add(int64(n))
	// The block itself crosses the wire — no copy. It arrives as an
	// undelimited byte arrival: serial wires have no record boundaries.
	b.Delim = false
	s.DeviceUp(b)
}

func (e *End) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	s := e.stream
	e.mu.Unlock()
	s.HangupUp()
	s.Close()
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

	mu   sync.Mutex
	eias map[int]*End
}

var _ vfs.Device = (*Dev)(nil)

// NewDev creates an empty UART device.
func NewDev(owner string) *Dev {
	return &Dev{owner: owner, eias: make(map[int]*End)}
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
		for n := range d.eias {
			ents = append(ents,
				devtree.MkFile(fmt.Sprintf("eia%d", n), d.owner, 0666),
				devtree.MkFile(fmt.Sprintf("eia%dctl", n), d.owner, 0666))
		}
		return ents, nil
	}
	root.Lookup = func(name string) (vfs.Node, error) {
		ctl := false
		numStr, ok := cutPrefix(name, "eia")
		if !ok {
			return nil, vfs.ErrNotExist
		}
		if s, isCtl := cutSuffix(numStr, "ctl"); isCtl {
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

func cutPrefix(s, p string) (string, bool) {
	if len(s) >= len(p) && s[:len(p)] == p {
		return s[len(p):], true
	}
	return s, false
}

func cutSuffix(s, p string) (string, bool) {
	if len(s) >= len(p) && s[len(s)-len(p):] == p {
		return s[:len(s)-len(p)], true
	}
	return s, false
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
