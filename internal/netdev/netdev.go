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

	mu    sync.Mutex
	convs [MaxConvs]*conv
}

type conv struct {
	dev  *Dev
	id   int
	conn xport.Conn

	mu    sync.Mutex
	inuse int
	// line is the conversation's pushable module chain, materialized
	// lazily by the first "push" ctl (§2.4.1). Once present, the data
	// file's reads and writes pass through it instead of the bare
	// conversation.
	line *streams.Line
}

var _ vfs.Device = (*Dev)(nil)

// New wraps proto in its file tree.
func New(proto xport.Proto, owner string) *Dev {
	return &Dev{proto: proto, owner: owner}
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

// place claims the lowest free conversation slot for the conversation
// src yields: a fresh one from the protocol (the clone file) or the one
// a listen accepted. src runs only once a slot is found, so a full
// table costs the protocol nothing. The caller of a refused accept
// hangs the call up after place returns — outside the device lock —
// because closing a conversation can park on the wire, and the device
// must stay walkable meanwhile.
func (d *Dev) place(src func() (xport.Conn, error)) (*conv, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range MaxConvs {
		c := d.convs[id]
		if c == nil {
			c = &conv{dev: d, id: id}
			d.convs[id] = c
		}
		//netvet:ignore lock-across-send fixed hierarchy: device before conversation, never reversed
		c.mu.Lock()
		if c.inuse != 0 {
			c.mu.Unlock()
			continue
		}
		conn, err := src()
		if err == nil {
			c.conn = conn
			c.inuse = 1
		}
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, vfs.ErrInUse
}

func (c *conv) incref() {
	c.mu.Lock()
	c.inuse++
	c.mu.Unlock()
}

func (c *conv) decref() {
	c.mu.Lock()
	c.inuse--
	done := c.inuse <= 0
	conn := c.conn
	line := c.line
	if done {
		c.inuse = 0
		c.conn = nil
		c.line = nil
	}
	c.mu.Unlock()
	if done && line != nil {
		line.Close() // pop-drains pending module data, then closes conn
		return
	}
	if done && conn != nil {
		conn.Close()
	}
}

func (c *conv) live() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inuse > 0
}

func (c *conv) xconn() xport.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// xline returns the conversation's module chain, nil before the first
// push.
func (c *conv) xline() *streams.Line {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.line
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
	if c.conn == nil {
		c.mu.Unlock()
		return vfs.ErrHungup
	}
	if c.line == nil {
		c.line = streams.NewLine(c.conn, ck, 0)
	}
	l := c.line
	c.mu.Unlock()
	return l.WriteCtl(netmsg.Push(spec))
}

// Root returns the device's top directory.
func (d *Dev) Root() vfs.Node {
	root := &devtree.DirNode{Entry: devtree.MkDir(d.proto.Name(), d.owner, 0555)}
	root.List = func() ([]vfs.Dir, error) {
		ents := []vfs.Dir{
			devtree.MkFile("clone", d.owner, 0666),
			devtree.MkFile("stats", d.owner, 0444),
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		for id := range MaxConvs {
			if c := d.convs[id]; c != nil && c.live() {
				ents = append(ents, devtree.MkDir(strconv.Itoa(id), d.owner, 0555))
			}
		}
		return ents, nil
	}
	root.Lookup = func(name string) (vfs.Node, error) {
		if name == "stats" {
			return devtree.TextFile(devtree.MkFile("stats", d.owner, 0444),
				func() (string, error) { return d.statsText(), nil }), nil
		}
		if name == "clone" {
			return &devtree.FileNode{
				Entry: devtree.MkFile("clone", d.owner, 0666),
				OpenFn: func(mode int) (vfs.Handle, error) {
					c, err := d.place(d.proto.NewConn)
					if err != nil {
						return nil, err
					}
					return d.ctlHandle(c), nil
				},
			}, nil
		}
		id, err := strconv.Atoi(name)
		if err != nil || id < 0 || id >= MaxConvs {
			return nil, vfs.ErrNotExist
		}
		d.mu.Lock()
		c := d.convs[id]
		d.mu.Unlock()
		if c == nil || !c.live() {
			return nil, vfs.ErrNotExist
		}
		return d.convDir(c), nil
	}
	return root
}

// statsText renders one line per live conversation, netstat style,
// followed by the engine's counters and histograms when the protocol
// exposes an obs.Group — the "name: value" body of /net/PROTO/stats.
func (d *Dev) statsText() string {
	var b strings.Builder
	d.mu.Lock()
	for id := range MaxConvs {
		c := d.convs[id]
		if c == nil {
			continue
		}
		conn := c.xconn()
		if conn == nil {
			continue
		}
		fmt.Fprintf(&b, "%s/%d %s %s %s\n",
			d.proto.Name(), id, conn.Status(), conn.LocalAddr(), conn.RemoteAddr())
	}
	d.mu.Unlock()
	if sp, ok := d.proto.(interface{ StatsGroup() *obs.Group }); ok {
		if g := sp.StatsGroup(); g != nil {
			b.WriteString(g.Render())
		}
	}
	return b.String()
}

func (d *Dev) ctlHandle(c *conv) vfs.Handle {
	return &devtree.CtlHandle{
		Get:   func() (string, error) { return strconv.Itoa(c.id), nil },
		Cmd:   func(cmd string) error { return d.convCtl(c, cmd) },
		OnEnd: func() { c.decref() },
	}
}

// convCtl parses the ASCII control requests of §2.3.
func (d *Dev) convCtl(c *conv, cmd string) error {
	conn := c.xconn()
	if conn == nil {
		return vfs.ErrHungup
	}
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
		if l := c.xline(); l != nil {
			return l.Close()
		}
		return conn.Close()
	case netmsg.VerbPush:
		// "push batch 2048 2ms", "push compress": dress the
		// conversation in a line discipline (§2.4.1).
		return c.pushLine(d.clock(), arg)
	case netmsg.VerbPop:
		l := c.xline()
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
func (d *Dev) convDir(c *conv) vfs.Node {
	mk := func(n string, perm uint32) vfs.Dir { return devtree.MkFile(n, d.owner, perm) }
	get := func(f func(xport.Conn) string) func() (string, error) {
		return func() (string, error) {
			conn := c.xconn()
			if conn == nil {
				return "", vfs.ErrHungup
			}
			return f(conn), nil
		}
	}
	ctl := &devtree.FileNode{
		Entry: mk("ctl", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			c.incref()
			return d.ctlHandle(c), nil
		},
	}
	data := &devtree.FileNode{
		Entry: mk("data", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			c.incref()
			return &dataHandle{c: c, conn: c.xconn()}, nil
		},
	}
	listen := &devtree.FileNode{
		Entry: mk("listen", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			conn := c.xconn()
			if conn == nil {
				return nil, vfs.ErrHungup
			}
			// Block until a call arrives; the returned handle is
			// the ctl file of the new connection.
			nconn, err := conn.Listen()
			if err != nil {
				return nil, err
			}
			nc, err := d.place(func() (xport.Conn, error) { return nconn, nil })
			if err != nil {
				nconn.Close() // no slot: refuse the call, with the device lock released
				return nil, err
			}
			return d.ctlHandle(nc), nil
		},
	}
	local := devtree.TextFile(mk("local", 0444),
		get(func(cn xport.Conn) string { return cn.LocalAddr() + "\n" }))
	remote := devtree.TextFile(mk("remote", 0444),
		get(func(cn xport.Conn) string { return cn.RemoteAddr() + "\n" }))
	status := devtree.TextFile(mk("status", 0444),
		get(func(cn xport.Conn) string {
			return d.proto.Name() + "/" + strconv.Itoa(c.id) + " " + cn.Status() + "\n"
		}))
	// The conversation's stats file: one counter group per pushed
	// module, rendered top first — the per-conversation bill for its
	// line disciplines. Empty until something is pushed.
	stats := devtree.TextFile(mk("stats", 0444), func() (string, error) {
		if !c.live() {
			return "", vfs.ErrHungup
		}
		l := c.xline()
		if l == nil {
			return "", nil
		}
		return l.StatsText(), nil
	})
	nodes := map[string]vfs.Node{
		"ctl": ctl, "data": data, "listen": listen,
		"local": local, "remote": remote, "stats": stats, "status": status,
	}
	order := []string{"ctl", "data", "listen", "local", "remote", "stats", "status"}
	if _, ok := c.xconn().(obs.Tracer); ok {
		// The conversation carries an event ring: serve it as the
		// trace file (§6.1's remote diagnosis — arm with "trace on",
		// read the events back, locally or over an imported /net).
		nodes["trace"] = devtree.TextFile(mk("trace", 0444),
			get(func(cn xport.Conn) string {
				r := cn.(obs.Tracer).Trace()
				if r == nil {
					return ""
				}
				return r.TraceText()
			}))
		order = append(order, "trace")
	}
	return devtree.StaticDir(devtree.MkDir(strconv.Itoa(c.id), d.owner, 0555),
		nodes, order)
}

// dataHandle is the data file: the process end of the conversation's
// stream. It remembers the conversation it was opened on. The slot is
// recycled when its last handle closes, and a process can come round to
// a read on a handle it has already closed — a 9P client's demux loop
// does, when Close overtakes it; that read must fail, not drain the
// slot's next tenant.
type dataHandle struct {
	c    *conv
	conn xport.Conn
}

var _ vfs.Handle = (*dataHandle)(nil)

// ends returns the conversation's line discipline, if one is pushed,
// and its protocol end; both are nil once the slot has let go of the
// conversation the handle was opened on.
func (h *dataHandle) ends() (*streams.Line, xport.Conn) {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.c.conn != h.conn {
		return nil, nil
	}
	return h.c.line, h.conn
}

// Read implements vfs.Handle (offset ignored; stream semantics).
// When the conversation wears a line discipline, reads come off the
// top of its stream; otherwise straight from the protocol.
func (h *dataHandle) Read(p []byte, off int64) (int, error) {
	l, conn := h.ends()
	if l != nil {
		n, err := l.Read(p)
		if err == io.EOF {
			return n, nil
		}
		return n, err
	}
	if conn == nil {
		return 0, vfs.ErrHungup
	}
	n, err := conn.Read(p)
	if err == io.EOF {
		return n, nil // EOF is a zero-length read at the file boundary
	}
	return n, err
}

// Write implements vfs.Handle.
func (h *dataHandle) Write(p []byte, off int64) (int, error) {
	l, conn := h.ends()
	if l != nil {
		return l.Write(p)
	}
	if conn == nil {
		return 0, vfs.ErrHungup
	}
	return conn.Write(p)
}

// Close implements vfs.Handle.
func (h *dataHandle) Close() error {
	h.c.decref()
	return nil
}
