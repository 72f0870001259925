// Package dialer provides the library routines of §5: dial, announce,
// listen, accept, and reject — "library routines are provided to
// relieve the programmer of the details" of the protocol-device dance.
//
// Dial uses CS to translate the symbolic name to all possible
// destination addresses and attempts to connect to each in turn until
// one works; specifying the special name net in the network portion
// lets CS pick a network/protocol in common with the destination.
package dialer

import (
	"errors"
	"fmt"
	"io"
	"path"
	"strings"

	"repro/internal/netmsg"
	"repro/internal/ns"
	"repro/internal/vfs"
)

// Errors.
var (
	ErrNoDest = errors.New("dial: cannot reach any destination")
)

// Conn is an established connection: the open data file plus the
// connection directory and its ctl file, mirroring dial(2)'s dir and
// cfdp outputs.
type Conn struct {
	// Data is the connection's data file.
	Data *ns.FD
	// Ctl is the connection's ctl file.
	Ctl *ns.FD
	// Dir is the path of the connection directory, e.g. "/net/tcp/2".
	Dir string
}

var _ io.ReadWriteCloser = (*Conn)(nil)

// Read reads from the data file.
func (c *Conn) Read(p []byte) (int, error) { return c.Data.Read(p) }

// Write writes to the data file.
func (c *Conn) Write(p []byte) (int, error) { return c.Data.Write(p) }

// Close releases both files.
func (c *Conn) Close() error {
	if c.Ctl != nil {
		c.Ctl.Close()
	}
	return c.Data.Close()
}

// Push arms the connection with line-discipline modules by writing
// "push" control messages, bottom-up: Push("compress", "batch 2048 2ms")
// puts compress nearest the wire and batch on top. Both ends of a
// conversation must push the same specs in the same order — the wire
// format is symmetric, not negotiated.
func (c *Conn) Push(specs ...string) error {
	if len(specs) == 0 {
		return nil
	}
	if c.Ctl == nil {
		return errors.New("dial: connection has no ctl file")
	}
	for _, spec := range specs {
		if _, err := c.Ctl.WriteString(netmsg.Push(spec)); err != nil {
			return fmt.Errorf("push %s: %w", spec, err)
		}
	}
	return nil
}

// Push arms an incoming call before Accept, so the server side of the
// conversation runs its module stack from the first byte — the
// counterpart of Conn.Push on the dialing side.
func (c *Call) Push(specs ...string) error {
	for _, spec := range specs {
		if _, err := c.ctl.WriteString(netmsg.Push(spec)); err != nil {
			return fmt.Errorf("push %s: %w", spec, err)
		}
	}
	return nil
}

// LocalAddr reads the connection's local file.
func (c *Conn) LocalAddr(nsp *ns.Namespace) string {
	b, err := nsp.ReadFile(c.Dir + "/local")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// RemoteAddr reads the connection's remote file.
func (c *Conn) RemoteAddr(nsp *ns.Namespace) string {
	b, err := nsp.ReadFile(c.Dir + "/remote")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// csLines asks /net/cs to translate dest, returning "clone message"
// lines.
func csLines(nsp *ns.Namespace, dest string) ([]string, error) {
	fd, err := nsp.Open("/net/cs/cs", vfs.ORDWR)
	if err != nil {
		// No connection server: fall back to a direct translation
		// "proto!addr!service" -> /net/proto/clone addr!service.
		return directTranslate(dest)
	}
	defer fd.Close()
	if _, err := fd.WriteString(dest); err != nil {
		// CS cannot translate it (an unknown network, e.g. a raw
		// cyclone device): fall back to the direct form.
		return directTranslate(dest)
	}
	var lines []string
	buf := make([]byte, 512)
	for {
		n, err := fd.ReadAt(buf, 0)
		if n == 0 || err != nil {
			break
		}
		lines = append(lines, strings.TrimSpace(string(buf[:n])))
	}
	if len(lines) == 0 {
		return directTranslate(dest)
	}
	return lines, nil
}

// directTranslate handles explicit "proto!addr!service" destinations
// without a connection server.
func directTranslate(dest string) ([]string, error) {
	parts := strings.Split(dest, "!")
	if len(parts) < 2 || parts[0] == "net" {
		return nil, ErrNoDest
	}
	addr := strings.Join(parts[1:], "!")
	return []string{"/net/" + parts[0] + "/clone " + addr}, nil
}

// connectOne opens a clone file and connects it to addr, returning the
// connection directory, ctl, and data files.
func connectOne(nsp *ns.Namespace, clone, addr string) (*Conn, error) {
	ctl, err := nsp.Open(clone, vfs.ORDWR)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 32)
	n, err := ctl.ReadAt(buf, 0)
	if err != nil || n == 0 {
		ctl.Close()
		return nil, fmt.Errorf("dial: reading clone: %v", err)
	}
	dir := path.Dir(ns.Clean(clone)) + "/" + strings.TrimSpace(string(buf[:n]))
	if _, err := ctl.WriteString(netmsg.Connect(addr)); err != nil {
		ctl.Close()
		return nil, err
	}
	data, err := nsp.Open(dir+"/data", vfs.ORDWR)
	if err != nil {
		ctl.Close()
		return nil, err
	}
	return &Conn{Data: data, Ctl: ctl, Dir: dir}, nil
}

// Dial establishes a connection to dest, trying each translation CS
// returns until one succeeds (§5.1).
func Dial(nsp *ns.Namespace, dest string) (*Conn, error) {
	lines, err := csLines(nsp, dest)
	if err != nil {
		return nil, err
	}
	var lastErr error = ErrNoDest
	for _, line := range lines {
		clone, addr, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		c, err := connectOne(nsp, clone, addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Listener is an announced service: the held ctl file keeps the
// announcement in force until closed (§5.2).
type Listener struct {
	nsp *ns.Namespace
	ctl *ns.FD
	// Dir is the announcement's protocol directory (dial(2)'s dir).
	Dir string
}

// Announce announces addr ("tcp!*!echo", or with an empty service to
// receive all services not explicitly announced) and returns the
// listener.
func Announce(nsp *ns.Namespace, addr string) (*Listener, error) {
	lines, err := csLines(nsp, addr)
	if err != nil {
		return nil, err
	}
	var lastErr error = ErrNoDest
	for _, line := range lines {
		clone, a, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		ctl, err := nsp.Open(clone, vfs.ORDWR)
		if err != nil {
			lastErr = err
			continue
		}
		buf := make([]byte, 32)
		n, rerr := ctl.ReadAt(buf, 0)
		if rerr != nil || n == 0 {
			ctl.Close()
			lastErr = fmt.Errorf("announce: reading clone: %v", rerr)
			continue
		}
		dir := path.Dir(ns.Clean(clone)) + "/" + strings.TrimSpace(string(buf[:n]))
		if _, err := ctl.WriteString(netmsg.Announce(a)); err != nil {
			ctl.Close()
			lastErr = err
			continue
		}
		return &Listener{nsp: nsp, ctl: ctl, Dir: dir}, nil
	}
	return nil, lastErr
}

// Call is an incoming call delivered by Listen, holding the new
// connection's ctl file until accepted or rejected.
type Call struct {
	nsp *ns.Namespace
	ctl *ns.FD
	// Dir is the new connection's directory (listen(2)'s ldir).
	Dir string
}

// Listen blocks until a call arrives on the announcement (§5.2):
// opening the listen file blocks and yields the ctl file of the new
// connection.
func (l *Listener) Listen() (*Call, error) {
	nctl, err := l.nsp.Open(l.Dir+"/listen", vfs.ORDWR)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 32)
	n, err := nctl.ReadAt(buf, 0)
	if err != nil || n == 0 {
		nctl.Close()
		return nil, fmt.Errorf("listen: reading new ctl: %v", err)
	}
	dir := path.Dir(l.Dir) + "/" + strings.TrimSpace(string(buf[:n]))
	return &Call{nsp: l.nsp, ctl: nctl, Dir: dir}, nil
}

// Close withdraws the announcement.
func (l *Listener) Close() error { return l.ctl.Close() }

// Accept accepts the call and opens its data file.
func (c *Call) Accept() (*Conn, error) {
	data, err := c.nsp.Open(c.Dir+"/data", vfs.ORDWR)
	if err != nil {
		c.ctl.Close()
		return nil, err
	}
	return &Conn{Data: data, Ctl: c.ctl, Dir: c.Dir}, nil
}

// Reject refuses the call. Some networks accept a reason; networks
// such as IP ignore it (§5.2).
func (c *Call) Reject(reason string) error {
	c.ctl.WriteString(netmsg.Reject(reason))
	return c.ctl.Close()
}
