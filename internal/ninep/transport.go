package ninep

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/vclock"
)

// MsgConn is a duplex transport that preserves message delimiters, the
// property 9P requires of its transport (§2.1). IL conversations and
// in-machine pipes provide it natively; byte streams such as TCP are
// adapted with NewStreamConn.
//
// ReadMsg may run alongside WriteMsg, but WriteMsg calls must not
// overlap one another, and neither must ReadMsg calls: a write can park
// on a paced medium and a read parks until a message arrives, and the
// lock that may be held across a park belongs to the caller, not the
// transport. Both in-tree writers hold one of their own — the Client
// around every request, the server's SrvConn around every reply (each a
// vclock.Mutex) — and both in-tree readers are one process by
// construction: the Client's demultiplexer and ServeConn's loop.
//
// Buffer discipline: WriteMsg takes ownership of p — the caller never
// touches it afterwards — and ReadMsg hands ownership of the returned
// buffer to the caller. Both in-tree readers decode it in place: an
// Rread's or Twrite's data stays in the buffer, which becomes the
// block behind the decoded message (block.FromBytes adopts a pooled
// buffer without a copy) and goes home when that message's owner
// frees it; any other message keeps only copies of its strings, and
// its buffer goes back with block.PutBytes at once.
type MsgConn interface {
	// ReadMsg returns the next whole message; the caller owns it. Calls
	// must not overlap.
	ReadMsg() ([]byte, error)
	// WriteMsg sends p as one message, taking ownership of p. Calls
	// must not overlap.
	WriteMsg(p []byte) error
	// Close tears the transport down; pending readers fail.
	Close() error
}

// ErrConnClosed reports I/O on a closed transport.
var ErrConnClosed = errors.New("9P: connection closed")

// pipe is an in-process MsgConn pair, the analogue of mounting a pipe
// to a user-level file server.
type pipe struct {
	in     *vclock.Mailbox[[]byte]
	out    *vclock.Mailbox[[]byte]
	closed atomic.Bool
	peer   *pipe
	once   sync.Once
}

// NewPipe returns two connected MsgConns whose readers and writers
// wait on ck. Messages written to one are read from the other, in
// order, with delimiters preserved. The buffer itself crosses the pipe:
// WriteMsg transfers ownership of its argument to the reading side, with
// no copy in between.
func NewPipe(ck vclock.Clock) (MsgConn, MsgConn) {
	ab := vclock.NewMailbox[[]byte](ck, 32)
	ba := vclock.NewMailbox[[]byte](ck, 32)
	a := &pipe{in: ba, out: ab}
	b := &pipe{in: ab, out: ba}
	a.peer, b.peer = b, a
	return a, b
}

// ReadMsg implements MsgConn. Messages already queued when an end
// closes are drained before the close is reported.
func (p *pipe) ReadMsg() ([]byte, error) {
	m, ok := p.in.Recv()
	if ok {
		return m, nil
	}
	if p.closed.Load() {
		return nil, ErrConnClosed
	}
	return nil, io.EOF
}

// WriteMsg implements MsgConn: m itself is handed to the reader.
func (p *pipe) WriteMsg(m []byte) error {
	if p.closed.Load() || p.peer.closed.Load() {
		return ErrConnClosed
	}
	if err := p.out.Send(m); err != nil {
		return ErrConnClosed
	}
	return nil
}

// Close implements MsgConn: both directions close, so the peer's
// reads drain and report EOF and its writes fail.
func (p *pipe) Close() error {
	p.once.Do(func() {
		p.closed.Store(true)
		p.out.Close()
		p.in.Close()
	})
	return nil
}

// streamConn adapts a byte stream (e.g. a TCP data file) into a
// MsgConn by length-prefix framing: the marshaling the paper says is
// needed "when a protocol does not meet these requirements (for
// example, TCP does not preserve delimiters)". 9P messages already
// begin with their length, so the frame is the message itself; the
// adapter reads the 4-byte size then the remainder.
type streamConn struct {
	rwc io.ReadWriteCloser
	// hdr is ReadMsg's size field. On ReadMsg's stack it would escape
	// through io.ReadFull, one allocation per message; ReadMsg calls
	// do not overlap, so one will do.
	hdr [4]byte
}

// NewStreamConn wraps a byte-stream connection as a MsgConn.
func NewStreamConn(rwc io.ReadWriteCloser) MsgConn {
	return &streamConn{rwc: rwc}
}

// ReadMsg implements MsgConn.
func (s *streamConn) ReadMsg() ([]byte, error) {
	if _, err := io.ReadFull(s.rwc, s.hdr[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(s.hdr[:])
	if size < 7 || size > MaxMsg {
		return nil, ErrBadMsg
	}
	msg := block.GetBytes(int(size))
	copy(msg, s.hdr[:])
	if _, err := io.ReadFull(s.rwc, msg[4:]); err != nil {
		block.PutBytes(msg)
		return nil, err
	}
	return msg, nil
}

// WriteMsg implements MsgConn. The underlying stream copies into its
// send buffer before returning, so the owned message is recycled here.
func (s *streamConn) WriteMsg(p []byte) error {
	_, err := s.rwc.Write(p)
	block.PutBytes(p)
	return err
}

// Close implements MsgConn.
func (s *streamConn) Close() error { return s.rwc.Close() }

// delimConn adapts a delimiter-preserving duplex file (an IL data
// file, or any stream whose reads return one written message) into a
// MsgConn: each Read yields exactly one message.
type delimConn struct {
	rwc io.ReadWriteCloser
}

// NewDelimConn wraps a delimiter-preserving connection as a MsgConn.
func NewDelimConn(rwc io.ReadWriteCloser) MsgConn {
	return &delimConn{rwc: rwc}
}

// ReadMsg implements MsgConn: the message is read straight into a
// pooled buffer that the caller owns — no staging buffer, no copy.
func (d *delimConn) ReadMsg() ([]byte, error) {
	buf := block.GetBytes(MaxMsg)
	n, err := d.rwc.Read(buf)
	if n == 0 {
		block.PutBytes(buf)
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	return buf[:n], nil
}

// WriteMsg implements MsgConn. The transport copies into its send
// queue before returning, so the owned message is recycled here.
func (d *delimConn) WriteMsg(p []byte) error {
	_, err := d.rwc.Write(p)
	block.PutBytes(p)
	return err
}

// Close implements MsgConn.
func (d *delimConn) Close() error { return d.rwc.Close() }
