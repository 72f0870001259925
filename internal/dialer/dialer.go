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
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"

	"repro/internal/block"
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
	if len(specs) > 0 && c.Ctl == nil {
		return errors.New("dial: connection has no ctl file")
	}
	return push(c.Ctl, specs)
}

// Push arms an incoming call before Accept, so the server side of the
// conversation runs its module stack from the first byte — the
// counterpart of Conn.Push on the dialing side.
func (c *Call) Push(specs ...string) error { return push(c.ctl, specs) }

func push(ctl *ns.FD, specs []string) error {
	for _, spec := range specs {
		if _, err := ctl.WriteString(netmsg.Push(spec)); err != nil {
			return fmt.Errorf("push %s: %w", spec, err)
		}
	}
	return nil
}

// LocalAddr reads the connection's local file.
func (c *Conn) LocalAddr(nsp *ns.Namespace) string { return c.addr(nsp, "/local") }

// RemoteAddr reads the connection's remote file.
func (c *Conn) RemoteAddr(nsp *ns.Namespace) string { return c.addr(nsp, "/remote") }

func (c *Conn) addr(nsp *ns.Namespace, file string) string {
	b, _ := nsp.ReadFile(c.Dir + file)
	return strings.TrimSpace(string(b))
}

// csLines asks /net/cs to translate dest and returns its answers,
// "clone message" lines, as one string: every answer is read through
// one pooled buffer, a line and its newline a read.
func csLines(nsp *ns.Namespace, dest string) (string, error) {
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
	const chunk = 512 // what each read asks for
	buf := block.GetBytes(2 * chunk)[:0]
	for {
		buf = slices.Grow(buf, chunk)
		n, err := fd.ReadAt(buf[len(buf):len(buf)+chunk], 0)
		if n == 0 || err != nil {
			break
		}
		buf = buf[:len(buf)+n]
	}
	answers := string(buf)
	block.PutBytes(buf)
	if answers == "" {
		return directTranslate(dest)
	}
	return answers, nil
}

// directTranslate handles explicit "proto!addr!service" destinations
// without a connection server.
func directTranslate(dest string) (string, error) {
	proto, addr, ok := strings.Cut(dest, "!")
	if !ok || proto == "net" {
		return "", ErrNoDest
	}
	return "/net/" + proto + "/clone " + addr, nil
}

// convDir reads the conversation number from ctl, a clone or listen
// file just opened, and returns the conversation's directory in dir.
// what names the read in an error.
func convDir(ctl *ns.FD, dir, what string) (string, error) {
	buf := block.GetBytes(32)
	defer block.PutBytes(buf)
	n, err := ctl.ReadAt(buf, 0)
	if err != nil || n == 0 {
		return "", fmt.Errorf("%s: %v", what, err)
	}
	return dir + "/" + string(bytes.TrimSpace(buf[:n])), nil
}

// cloneConv opens a clone file, finds the new conversation's
// directory and writes msg, a connect or an announce, to its ctl file,
// which it returns open.
func cloneConv(nsp *ns.Namespace, clone, msg, what string) (*ns.FD, string, error) {
	ctl, err := nsp.Open(clone, vfs.ORDWR)
	if err != nil {
		return nil, "", err
	}
	dir, err := convDir(ctl, path.Dir(ns.Clean(clone)), what+": reading clone")
	if err == nil {
		_, err = ctl.WriteString(msg)
	}
	if err != nil {
		ctl.Close()
		return nil, "", err
	}
	return ctl, dir, nil
}

// Dial establishes a connection to dest, trying each translation CS
// returns until one succeeds (§5.1).
func Dial(nsp *ns.Namespace, dest string) (*Conn, error) {
	var c *Conn
	err := eachClone(nsp, dest, func(clone, addr string) error {
		ctl, dir, err := cloneConv(nsp, clone, netmsg.Connect(addr), "dial")
		if err != nil {
			return err
		}
		data, err := nsp.Open(dir+"/data", vfs.ORDWR)
		if err != nil {
			ctl.Close()
			return err
		}
		c = &Conn{Data: data, Ctl: ctl, Dir: dir}
		return nil
	})
	return c, err
}

// eachClone calls try with the clone file and address of each
// translation CS gives for dest until one succeeds, and returns the
// last failure.
func eachClone(nsp *ns.Namespace, dest string, try func(clone, addr string) error) error {
	answers, err := csLines(nsp, dest)
	if err != nil {
		return err
	}
	err = ErrNoDest
	for line := range strings.Lines(answers) {
		if clone, addr, ok := strings.Cut(strings.TrimSpace(line), " "); ok {
			if err = try(clone, addr); err == nil {
				return nil
			}
		}
	}
	return err
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
	var l *Listener
	err := eachClone(nsp, addr, func(clone, a string) error {
		ctl, dir, err := cloneConv(nsp, clone, netmsg.Announce(a), "announce")
		if err == nil {
			l = &Listener{nsp: nsp, ctl: ctl, Dir: dir}
		}
		return err
	})
	return l, err
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
	dir, err := convDir(nctl, path.Dir(l.Dir), "listen: reading new ctl")
	if err != nil {
		nctl.Close()
		return nil, err
	}
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
