// Package netdev serves any transport protocol as the uniform
// protocol-device file tree of §2.3:
//
//	/net/tcp/clone
//	/net/tcp/0/{ctl,data,listen,local,remote,status}
//	...
//
// "All protocol devices look identical so user programs contain no
// network-specific code." The connection dance is the paper's:
//
//  1. open the clone file to reserve a conversation; the returned fd
//     is the ctl file of the new connection,
//  2. read it for the ASCII connection number,
//  3. write a protocol-specific ASCII address ("connect 135.104.9.31!564"),
//  4. open the data file to exchange bytes.
//
// A listener writes "announce <addr>" instead and then opens the
// listen file, which blocks until a call arrives and yields a file
// descriptor for the ctl file of the new connection.
//
// The data file is the top of the conversation's one stream, the one
// its protocol reads through (§2.4); "push" and "pop" on the ctl file
// put line disciplines on that same stream (§2.4.1).
package netdev

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/devtree"
	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/xport"
)

// MaxConvs bounds the conversations per protocol device.
const MaxConvs = 64

// Dev wraps an xport.Proto as a device file tree.
type Dev struct {
	proto xport.Proto
	owner string
	convs *devtree.Table[*conv] // conversations 0 … MaxConvs-1
	dirs  devtree.ConvDirs[*conv]
}

// conv is what the device keeps per conversation: the protocol's end,
// which carries the conversation's stream and whatever is pushed on it.
type conv struct {
	dev  *Dev
	id   int
	conn xport.Conn
}

var _ vfs.Device = (*Dev)(nil)

// New wraps proto in its file tree.
func New(proto xport.Proto, owner string) *Dev {
	d := &Dev{proto: proto, owner: owner, convs: devtree.NewTable(proto.Clock(), 0, MaxConvs, func(c *conv) { c.hangup() })}
	d.dirs = devtree.ConvDirs[*conv]{Owner: owner, Files: convFiles, Open: d.open}
	return d
}

// Name implements vfs.Device ("tcp", "il", "udp", "dk", "cyc").
func (d *Dev) Name() string { return d.proto.Name() }

// Attach implements vfs.Device.
func (d *Dev) Attach(spec string) (vfs.Node, error) {
	if spec != "" {
		return nil, vfs.ErrBadSpec
	}
	return d.Root(), nil
}

// Root returns the device's top directory.
func (d *Dev) Root() vfs.Node {
	return d.convs.Root(d.proto.Name(), d.clone, &d.dirs,
		devtree.TextFile(devtree.MkFile("stats", d.owner, 0444),
			func() (string, error) { return d.statsText(), nil }))
}

// clone is the clone file's open: it reserves a fresh conversation from
// the protocol and returns its ctl file.
func (d *Dev) clone(int) (vfs.Handle, error) {
	return d.place(d.proto.NewConn)
}

// place claims a slot for the conversation src yields — a fresh one
// from the protocol, or the one a listen accepted — and returns its ctl
// file.
func (d *Dev) place(src func() (xport.Conn, error)) (vfs.Handle, error) {
	ref, err := d.convs.Claim(func(id int) (*conv, error) {
		conn, err := src()
		if err != nil {
			return nil, err
		}
		return &conv{dev: d, id: id, conn: conn}, nil
	})
	if err != nil {
		return nil, err
	}
	return ref.Ctl((*conv).ctl), nil
}

// hangup ends the conversation, when its last file closes or on the
// "hangup" request: the pushed modules pop first, draining what they
// hold (a batch window) out through the protocol, which then closes.
func (c *conv) hangup() error {
	if s := c.conn.Stream(); s != nil {
		for s.Pop() == nil {
		}
	}
	return c.conn.Close()
}

// statsText renders one line per live conversation, netstat style,
// followed by the engine's counters and histograms when the protocol
// exposes an obs.Group — the "name: value" body of /net/PROTO/stats.
func (d *Dev) statsText() string {
	var b strings.Builder
	d.convs.Each(func(id int, c *conv) {
		fmt.Fprintf(&b, "%s/%d %s %s %s\n",
			d.proto.Name(), id, c.conn.Status(), c.conn.LocalAddr(), c.conn.RemoteAddr())
	})
	if sp, ok := d.proto.(interface{ StatsGroup() *obs.Group }); ok {
		if g := sp.StatsGroup(); g != nil {
			b.WriteString(g.Render())
		}
	}
	return b.String()
}

// ctl parses the ASCII control requests of §2.3.
func (c *conv) ctl(cmd string) error {
	conn := c.conn
	verb, arg := netmsg.Parse(cmd)
	switch verb {
	case netmsg.VerbConnect:
		if arg == "" {
			return vfs.ErrBadCtl
		}
		// A connect argument may carry a local-address suffix
		// ("addr local"), which we accept and ignore (most
		// networks do not support it, §5.1).
		addr, _, _ := strings.Cut(arg, " ")
		return conn.Connect(addr)
	case netmsg.VerbAnnounce:
		if arg == "" {
			return vfs.ErrBadCtl
		}
		return conn.Announce(arg)
	case netmsg.VerbHangup:
		return c.hangup()
	case netmsg.VerbPush, netmsg.VerbPop:
		// "push batch 2048 2ms", "push compress": dress the
		// conversation's stream in a line discipline (§2.4.1); "pop"
		// takes the top one off. Pushing is operator-coordinated with
		// traffic, as in the kernel: both ends push the same modules
		// before exchanging data through them.
		switch s := conn.Stream(); {
		case verb == netmsg.VerbPush && arg == "":
			return vfs.ErrBadCtl
		case s == nil:
			return xport.ErrNotConnected
		case verb == netmsg.VerbPop:
			return s.Pop()
		default:
			return s.WriteCtl(netmsg.Push(arg))
		}
	case netmsg.VerbReject:
		// Datakit accepts a reason; IP networks ignore it (§5.2).
		return conn.Close()
	case netmsg.VerbTrace:
		// "trace on" arms the conversation's event ring; "trace off"
		// stops it. The buffered events stay readable either way.
		t, ok := conn.(obs.Tracer)
		if !ok {
			return vfs.ErrBadCtl
		}
		r := t.Trace()
		if r == nil {
			return vfs.ErrBadCtl
		}
		switch arg {
		case "on":
			r.Enable(c.dev.proto.Clock())
		case "off":
			r.Disable()
		default:
			return vfs.ErrBadCtl
		}
		return nil
	default:
		return vfs.ErrBadCtl
	}
}

// The kinds of a conversation directory's files that the device opens;
// the rest are text the table renders.
const (
	qctl = iota
	qdata
	qlisten
)

// convFiles is a conversation directory, in the order a listing shows
// it.
var convFiles = []devtree.ConvFile[*conv]{
	{Name: "ctl", Perm: 0666, Kind: qctl},
	{Name: "data", Perm: 0666, Kind: qdata},
	{Name: "listen", Perm: 0666, Kind: qlisten},
	{Name: "local", Perm: 0444, Text: func(c *conv) string { return c.conn.LocalAddr() + "\n" }},
	{Name: "remote", Perm: 0444, Text: func(c *conv) string { return c.conn.RemoteAddr() + "\n" }},
	// The conversation's stats file: one counter group per pushed
	// module, rendered top first — the per-conversation bill for its
	// line disciplines. Empty until something is pushed.
	{Name: "stats", Perm: 0444, Text: (*conv).statsText},
	{Name: "status", Perm: 0444, Text: func(c *conv) string {
		return c.dev.proto.Name() + "/" + strconv.Itoa(c.id) + " " + c.conn.Status() + "\n"
	}},
	// Only a conversation that carries an event ring has a trace file:
	// it serves the ring (§6.1's remote diagnosis — arm with "trace
	// on", read the events back, locally or over an imported /net).
	{Name: "trace", Perm: 0444, Text: (*conv).traceText, Has: func(c *conv) bool {
		_, ok := c.conn.(obs.Tracer)
		return ok
	}},
}

// open opens the ctl, data or listen file of tenancy n.
func (d *Dev) open(n devtree.Tenancy[*conv], kind, mode int) (vfs.Handle, error) {
	if kind == qlisten {
		c, err := n.Conv()
		if err != nil {
			return nil, err
		}
		// Block until a call arrives; the returned handle is the ctl
		// file of the new connection.
		call, err := c.conn.Listen()
		if err != nil {
			return nil, err
		}
		h, err := d.place(func() (xport.Conn, error) { return call, nil })
		if err != nil {
			call.Close() // no slot: refuse the call, with the table unlocked
		}
		return h, err
	}
	ref, err := n.Hold()
	if err != nil {
		return nil, err
	}
	if kind == qctl {
		return ref.Ctl((*conv).ctl), nil
	}
	return &dataHandle{ref: ref}, nil
}

func (c *conv) statsText() string {
	s := c.conn.Stream()
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, g := range s.ModuleStats() {
		b.WriteString(g.Render())
	}
	return b.String()
}

func (c *conv) traceText() string {
	r := c.conn.(obs.Tracer).Trace()
	if r == nil {
		return ""
	}
	return r.TraceText()
}

// dataHandle is the data file: the process end of the conversation's
// stream. It holds a reference to the tenancy it was opened on, not to
// the slot: a process can come round to a read on a handle it has
// already closed — a 9P client's demux loop does, when Close overtakes
// it — and that read must fail, not drain the slot's next tenant.
type dataHandle struct{ ref devtree.Ref[*conv] }

var _ vfs.Handle = (*dataHandle)(nil)

// Read implements vfs.Handle (offset ignored; stream semantics): the
// protocol's Read, which takes data off the top of the conversation's
// stream. EOF is a zero-length read at the file boundary.
func (h *dataHandle) Read(p []byte, off int64) (n int, err error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	n, err = c.conn.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// Write implements vfs.Handle: down the conversation's stream, through
// whatever is pushed on it, to the protocol's Write at its device end.
func (h *dataHandle) Write(p []byte, off int64) (int, error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	if s := c.conn.Stream(); s != nil {
		return s.Write(p)
	}
	return c.conn.Write(p)
}

// Close implements vfs.Handle.
func (h *dataHandle) Close() error {
	h.ref.Release()
	return nil
}
