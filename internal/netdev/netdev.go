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
package netdev

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/devtree"
	"repro/internal/netmsg"
	"repro/internal/obs"
	"repro/internal/streams"
	"repro/internal/vclock"
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
}

// conv is what the device keeps per conversation: the protocol's end
// and the line discipline pushed on it.
type conv struct {
	dev  *Dev
	conn xport.Conn
	// line is the conversation's pushable module chain, materialized
	// lazily by the first "push" ctl (§2.4.1). Once present, the data
	// file's reads and writes pass through it instead of the bare
	// conversation.
	line atomic.Pointer[streams.Line]

	mu   sync.Mutex // orders the first push against the hangup
	hung bool
}

var _ vfs.Device = (*Dev)(nil)

// New wraps proto in its file tree.
func New(proto xport.Proto, owner string) *Dev {
	return &Dev{proto: proto, owner: owner, convs: devtree.NewTable(0, MaxConvs, (*conv).hangup)}
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
	return d.convs.Root(d.proto.Name(), d.owner, d.clone, d.convDir,
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
	ref, err := d.convs.Claim(func(int) (*conv, error) {
		conn, err := src()
		if err != nil {
			return nil, err
		}
		return &conv{dev: d, conn: conn}, nil
	})
	if err != nil {
		return nil, err
	}
	return ref.Ctl((*conv).ctl), nil
}

// hangup ends the conversation when its last file closes.
func (c *conv) hangup() {
	c.mu.Lock()
	c.hung = true
	c.mu.Unlock()
	if l := c.line.Load(); l != nil {
		l.Close() // pop-drains pending module data, then closes conn
		return
	}
	c.conn.Close()
}

// clock returns the protocol's time source when it exposes one (every
// simulated protocol does, so a pushed module's flush timers run in
// virtual time with the rest of the scenario), the real clock
// otherwise.
func (d *Dev) clock() vclock.Clock {
	if cp, ok := d.proto.(interface{ Clock() vclock.Clock }); ok {
		return vclock.Or(cp.Clock())
	}
	return vclock.Or(nil)
}

// pushLine pushes one module spec onto the conversation's stream,
// creating the stream around the bare conversation on the first push.
// Pushing is operator-coordinated with traffic, as in the kernel: both
// ends push the same modules before exchanging data through them.
func (c *conv) pushLine(ck vclock.Clock, spec string) error {
	if spec == "" {
		return vfs.ErrBadCtl
	}
	c.mu.Lock()
	if c.hung {
		c.mu.Unlock()
		return vfs.ErrHungup
	}
	l := c.line.Load()
	if l == nil {
		l = streams.NewLine(c.conn, ck, 0)
		c.line.Store(l)
	}
	c.mu.Unlock()
	return l.WriteCtl(netmsg.Push(spec))
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
		if l := c.line.Load(); l != nil {
			return l.Close()
		}
		return conn.Close()
	case netmsg.VerbPush:
		// "push batch 2048 2ms", "push compress": dress the
		// conversation in a line discipline (§2.4.1).
		return c.pushLine(c.dev.clock(), arg)
	case netmsg.VerbPop:
		l := c.line.Load()
		if l == nil {
			return streams.ErrNothingToPop
		}
		return l.WriteCtl(netmsg.Pop())
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
			r.Enable()
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

// convDir serves one numbered connection directory.
func (d *Dev) convDir(n devtree.Tenancy[*conv]) vfs.Node {
	mk := func(name string, perm uint32) vfs.Dir { return devtree.MkFile(name, d.owner, perm) }
	ctl := n.File(mk("ctl", 0666), func(r devtree.Ref[*conv]) vfs.Handle { return r.Ctl((*conv).ctl) })
	data := n.File(mk("data", 0666), func(r devtree.Ref[*conv]) vfs.Handle { return &dataHandle{ref: r} })
	listen := &devtree.FileNode{
		Entry: mk("listen", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			c, err := n.Conv()
			if err != nil {
				return nil, err
			}
			// Block until a call arrives; the returned handle is
			// the ctl file of the new connection.
			call, err := c.conn.Listen()
			if err != nil {
				return nil, err
			}
			h, err := d.place(func() (xport.Conn, error) { return call, nil })
			if err != nil {
				call.Close() // no slot: refuse the call, with the table unlocked
			}
			return h, err
		},
	}
	local := n.Text(mk("local", 0444), func(c *conv) string { return c.conn.LocalAddr() + "\n" })
	remote := n.Text(mk("remote", 0444), func(c *conv) string { return c.conn.RemoteAddr() + "\n" })
	status := n.Text(mk("status", 0444), func(c *conv) string {
		return d.proto.Name() + "/" + strconv.Itoa(n.ID()) + " " + c.conn.Status() + "\n"
	})
	// The conversation's stats file: one counter group per pushed
	// module, rendered top first — the per-conversation bill for its
	// line disciplines. Empty until something is pushed.
	stats := n.Text(mk("stats", 0444), func(c *conv) string {
		if l := c.line.Load(); l != nil {
			return l.StatsText()
		}
		return ""
	})
	nodes := map[string]vfs.Node{
		"ctl": ctl, "data": data, "listen": listen,
		"local": local, "remote": remote, "stats": stats, "status": status,
	}
	order := []string{"ctl", "data", "listen", "local", "remote", "stats", "status"}
	if c, err := n.Conv(); err == nil {
		if _, ok := c.conn.(obs.Tracer); ok {
			// The conversation carries an event ring: serve it as the
			// trace file (§6.1's remote diagnosis — arm with "trace on",
			// read the events back, locally or over an imported /net).
			nodes["trace"] = n.Text(mk("trace", 0444), func(c *conv) string {
				r := c.conn.(obs.Tracer).Trace()
				if r == nil {
					return ""
				}
				return r.TraceText()
			})
			order = append(order, "trace")
		}
	}
	return devtree.StaticDir(devtree.MkDir(strconv.Itoa(n.ID()), d.owner, 0555),
		nodes, order)
}

// dataHandle is the data file: the process end of the conversation's
// stream. It holds a reference to the tenancy it was opened on, not to
// the slot: a process can come round to a read on a handle it has
// already closed — a 9P client's demux loop does, when Close overtakes
// it — and that read must fail, not drain the slot's next tenant.
type dataHandle struct{ ref devtree.Ref[*conv] }

var _ vfs.Handle = (*dataHandle)(nil)

// Read implements vfs.Handle (offset ignored; stream semantics).
// When the conversation wears a line discipline, reads come off the
// top of its stream; otherwise straight from the protocol. EOF is a
// zero-length read at the file boundary.
func (h *dataHandle) Read(p []byte, off int64) (n int, err error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	if l := c.line.Load(); l != nil {
		n, err = l.Read(p)
	} else {
		n, err = c.conn.Read(p)
	}
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// Write implements vfs.Handle.
func (h *dataHandle) Write(p []byte, off int64) (int, error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	if l := c.line.Load(); l != nil {
		return l.Write(p)
	}
	return c.conn.Write(p)
}

// Close implements vfs.Handle.
func (h *dataHandle) Close() error {
	h.ref.Release()
	return nil
}
