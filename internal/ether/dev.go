package ether

import (
	"fmt"
	"strconv"

	"repro/internal/devtree"
	"repro/internal/netmsg"
	"repro/internal/vfs"
)

// Dev presents an Interface as the kernel file tree of Figure 1:
//
//	clone
//	1/ctl 1/data 1/stats 1/type
//	...
//
// Opening clone finds an unused connection and opens its ctl file;
// reading that file descriptor returns the ASCII connection number.
// Writing "connect 2048" to ctl sets the packet type; "connect -1"
// selects all packets; "promiscuous" turns on promiscuous mode.
type Dev struct {
	ifc  *Interface
	dirs devtree.ConvDirs[*Conn]
}

var _ vfs.Device = (*Dev)(nil)

// NewDev wraps an interface in its device file tree.
func NewDev(ifc *Interface, owner string) *Dev {
	return &Dev{ifc: ifc, dirs: devtree.ConvDirs[*Conn]{Owner: owner, Files: connFiles, Open: openConn}}
}

// Name implements vfs.Device.
func (d *Dev) Name() string { return d.ifc.name }

// Attach implements vfs.Device.
func (d *Dev) Attach(spec string) (vfs.Node, error) {
	if spec != "" {
		return nil, vfs.ErrBadSpec
	}
	return d.Root(), nil
}

// Root returns the top directory of the tree.
func (d *Dev) Root() vfs.Node {
	return d.ifc.convs.Root(d.ifc.name, d.clone, &d.dirs)
}

// clone is the clone file's open: it reserves a conversation and
// behaves as that conversation's ctl file.
func (d *Dev) clone(int) (vfs.Handle, error) {
	ref, err := d.ifc.claim()
	if err != nil {
		return nil, err
	}
	return ref.Ctl(connCtl), nil
}

// connCtl parses the ASCII control commands of §2.2.
func connCtl(c *Conn, cmd string) error {
	verb, arg := netmsg.Parse(cmd)
	switch verb {
	case netmsg.VerbConnect:
		t, err := strconv.Atoi(arg)
		if err != nil || t < -1 || t > 0xffff {
			return vfs.ErrBadCtl
		}
		c.SetType(t)
		return nil
	case netmsg.VerbPromiscuous:
		c.SetPromiscuous(true)
		return nil
	default:
		return vfs.ErrBadCtl
	}
}

// The kinds of a connection directory's files that the device opens;
// the rest are text the table renders.
const (
	qctl = iota
	qdata
)

// connFiles is a connection directory, in the order a listing shows it.
var connFiles = []devtree.ConvFile[*Conn]{
	{Name: "ctl", Perm: 0666, Kind: qctl},
	{Name: "data", Perm: 0666, Kind: qdata},
	{Name: "stats", Perm: 0444, Text: func(c *Conn) string {
		return c.ifc.Stats() + fmt.Sprintf("conn %d: type %d in %d out %d\n",
			c.id, c.Type(), c.inPackets.Load(), c.outPackets.Load())
	}},
	{Name: "type", Perm: 0444, Text: func(c *Conn) string { return strconv.Itoa(c.Type()) }},
}

// openConn opens the ctl or data file of tenancy n.
func openConn(n devtree.Tenancy[*Conn], kind, mode int) (vfs.Handle, error) {
	ref, err := n.Hold()
	if err != nil {
		return nil, err
	}
	if kind == qctl {
		return ref.Ctl(connCtl), nil
	}
	return &dataHandle{ref: ref}, nil
}

// dataHandle accesses the media: reading returns the next packet of
// the selected type, writing queues a packet for transmission. It
// holds a reference to the tenancy it was opened on; once closed it
// reaches no conversation, whoever has the slot by then.
type dataHandle struct{ ref devtree.Ref[*Conn] }

var _ vfs.Handle = (*dataHandle)(nil)

// Read implements vfs.Handle; the offset is ignored (stream semantics).
func (h *dataHandle) Read(p []byte, off int64) (int, error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	return c.Read(p)
}

// Write implements vfs.Handle.
func (h *dataHandle) Write(p []byte, off int64) (int, error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	var dst Addr
	if len(p) < len(dst) {
		return 0, fmt.Errorf("ether: %d-byte write holds no destination address", len(p))
	}
	copy(dst[:], p)
	if err := c.Transmit(dst, p[len(dst):]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close implements vfs.Handle.
func (h *dataHandle) Close() error {
	h.ref.Release()
	return nil
}
