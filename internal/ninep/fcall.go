// Package ninep implements the 9P file protocol as the paper describes
// it (§2.1): "The protocol consists of 17 messages describing
// operations on files and directories." This is the 1993 dialect —
// fixed-length name fields (NAMELEN 28), session/attach connection
// setup, separate clone and walk (plus the clwalk combination), a
// stat record identical to a directory-read record — with two widenings
// for a modern host: 64-bit file offsets and 64-bit qid paths.
//
// The 17 message operations are: nop, session, auth, attach, clone,
// walk, clwalk, open, create, read, write, clunk, remove, stat, wstat,
// flush, and error (which exists only in its R form).
//
// 9P relies on the transport preserving message delimiters (§2.1); the
// MsgConn interface captures that. For byte-stream transports such as
// TCP, which do not preserve delimiters, the package provides the
// marshaling adapter the paper alludes to ("we provide mechanisms to
// marshal messages before handing them to the system").
package ninep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/block"
	"repro/internal/vfs"
)

// Protocol limits, as in the 1993 kernel.
const (
	NameLen  = 28   // length of name fields (NAMELEN)
	ErrLen   = 64   // length of error strings (ERRLEN)
	MaxFData = 8192 // max data in a single read/write (MAXFDATA)
	// MaxMsg bounds a marshaled message: header + fixed fields + data.
	MaxMsg = MaxFData + 160

	// NoTag is the tag of messages outside any RPC (none here, but
	// kept for fidelity with fcall.h).
	NoTag = 0xFFFF
	// NoFid is the nil fid value.
	NoFid = ^uint32(0)
)

// Message types. T messages are requests, R messages responses; the
// response type is always the request type plus one. Terror is illegal:
// only Rerror exists.
const (
	Tnop uint8 = 50 + iota
	Rnop
	Tsession
	Rsession
	Terror // illegal
	Rerror
	Tflush
	Rflush
	Tattach
	Rattach
	Tclone
	Rclone
	Twalk
	Rwalk
	Topen
	Ropen
	Tcreate
	Rcreate
	Tread
	Rread
	Twrite
	Rwrite
	Tclunk
	Rclunk
	Tremove
	Rremove
	Tstat
	Rstat
	Twstat
	Rwstat
	Tclwalk
	Rclwalk
	Tauth
	Rauth
	Tmax
)

var typeNames = map[uint8]string{
	Tnop: "Tnop", Rnop: "Rnop",
	Tsession: "Tsession", Rsession: "Rsession",
	Rerror: "Rerror",
	Tflush: "Tflush", Rflush: "Rflush",
	Tattach: "Tattach", Rattach: "Rattach",
	Tclone: "Tclone", Rclone: "Rclone",
	Twalk: "Twalk", Rwalk: "Rwalk",
	Topen: "Topen", Ropen: "Ropen",
	Tcreate: "Tcreate", Rcreate: "Rcreate",
	Tread: "Tread", Rread: "Rread",
	Twrite: "Twrite", Rwrite: "Rwrite",
	Tclunk: "Tclunk", Rclunk: "Rclunk",
	Tremove: "Tremove", Rremove: "Rremove",
	Tstat: "Tstat", Rstat: "Rstat",
	Twstat: "Twstat", Rwstat: "Rwstat",
	Tclwalk: "Tclwalk", Rclwalk: "Rclwalk",
	Tauth: "Tauth", Rauth: "Rauth",
}

// TypeName returns the symbolic name of a message type.
func TypeName(t uint8) string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Tunknown(%d)", t)
}

// Fcall is the in-memory form of any 9P message, as in fcall(2); the
// Type field selects which other fields are meaningful.
type Fcall struct {
	Type   uint8
	Tag    uint16
	Fid    uint32
	Newfid uint32 // clone, clwalk
	Oldtag uint16 // flush
	Uname  string // attach, auth
	Aname  string // attach
	Chal   string // session, auth challenge/ticket
	Name   string // walk, clwalk, create
	Perm   uint32 // create
	Mode   uint8  // open, create
	Offset int64  // read, write
	Count  uint16 // read, write
	Data   []byte // write request, read response
	Qid    vfs.Qid
	Stat   vfs.Dir // stat response, wstat request
	Ename  string  // error response

	// blk, when non-nil, is the refcounted block backing Data. On an
	// Rread the server answers with, it is a cache fragment served
	// zero-copy or the pooled block the copy path read into, and the
	// server drops the reference after marshaling. On an Rread or
	// Twrite decoded off the wire, it is the wire buffer the message
	// arrived in (decode), and its one owner frees it: the Window that
	// reaped the reply, flushMany or demux for one abandoned, the
	// server once the request has run. It never crosses the wire.
	blk *block.Block
}

// free drops the reference behind Data, if any; Data dies with it.
func (f *Fcall) free() {
	if f.blk != nil {
		f.blk.Free()
		f.blk, f.Data = nil, nil
	}
}

func (f *Fcall) String() string {
	switch f.Type {
	case Rerror:
		return fmt.Sprintf("%s tag %d ename %q", TypeName(f.Type), f.Tag, f.Ename)
	case Twalk, Tclwalk, Tcreate:
		return fmt.Sprintf("%s tag %d fid %d name %q", TypeName(f.Type), f.Tag, f.Fid, f.Name)
	case Tread, Rread, Twrite, Rwrite:
		return fmt.Sprintf("%s tag %d fid %d offset %d count %d", TypeName(f.Type), f.Tag, f.Fid, f.Offset, f.Count)
	default:
		return fmt.Sprintf("%s tag %d fid %d", TypeName(f.Type), f.Tag, f.Fid)
	}
}

// Marshaling errors.
var (
	ErrBadMsg   = errors.New("9P: malformed message")
	ErrBadType  = errors.New("9P: bad message type")
	ErrTooBig   = errors.New("9P: message too long")
	ErrNameLen  = errors.New("9P: name too long")
	ErrDataLen  = errors.New("9P: data count too large")
	ErrShortMsg = errors.New("9P: message truncated")
)

type coder struct {
	buf []byte
	off int
	err error
}

func (c *coder) pu8(v uint8) { c.buf = append(c.buf, v) }
func (c *coder) pu16(v uint16) {
	c.buf = binary.LittleEndian.AppendUint16(c.buf, v)
}
func (c *coder) pu32(v uint32) {
	c.buf = binary.LittleEndian.AppendUint32(c.buf, v)
}
func (c *coder) pu64(v uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
}

// pname appends a fixed-length NUL-padded string field.
func (c *coder) pname(s string, n int) {
	if len(s) >= n {
		c.err = ErrNameLen
		s = s[:n-1]
	}
	var pad [ErrLen]byte
	copy(pad[:], s)
	c.buf = append(c.buf, pad[:n]...)
}

func (c *coder) pqid(q vfs.Qid) {
	c.pu64(q.Path)
	c.pu32(q.Vers)
	c.pu8(q.Type)
}

func (c *coder) gu8() uint8 {
	if c.err != nil || c.off+1 > len(c.buf) {
		c.fail()
		return 0
	}
	v := c.buf[c.off]
	c.off++
	return v
}

func (c *coder) gu16() uint16 {
	if c.err != nil || c.off+2 > len(c.buf) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(c.buf[c.off:])
	c.off += 2
	return v
}

func (c *coder) gu32() uint32 {
	if c.err != nil || c.off+4 > len(c.buf) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *coder) gu64() uint64 {
	if c.err != nil || c.off+8 > len(c.buf) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

func (c *coder) gname(n int) string {
	if c.err != nil || c.off+n > len(c.buf) {
		c.fail()
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	i := strings.IndexByte(s, 0)
	if i < 0 {
		// A fixed-length string field with no NUL terminator is
		// malformed: pname always leaves room for one, so accepting
		// the field would parse messages that cannot round-trip.
		c.err = ErrNameLen
		return ""
	}
	return s[:i]
}

func (c *coder) gqid() vfs.Qid {
	return vfs.Qid{Path: c.gu64(), Vers: c.gu32(), Type: c.gu8()}
}

// data returns the next n bytes of the buffer in place, capped so an
// append cannot run into what follows; nil when n is 0.
func (c *coder) data(n int) []byte {
	var d []byte
	if n > 0 {
		d = c.buf[c.off : c.off+n : c.off+n]
	}
	c.off += n
	return d
}

func (c *coder) fail() {
	if c.err == nil {
		c.err = ErrShortMsg
	}
}

// MarshalFcall encodes f into wire form (convS2M). The returned buffer
// is pool-backed; a MsgConn WriteMsg takes ownership of it and recycles
// it once it is on the wire.
func MarshalFcall(f *Fcall) ([]byte, error) {
	c := &coder{buf: block.GetBytes(128 + len(f.Data))[:0]}
	c.pu32(0) // size, patched below
	c.pu8(f.Type)
	c.pu16(f.Tag)
	switch f.Type {
	case Tnop, Rnop, Rflush:
	case Tsession, Rsession:
		c.pname(f.Chal, NameLen)
	case Rerror:
		c.pname(f.Ename, ErrLen)
	case Tflush:
		c.pu16(f.Oldtag)
	case Tattach:
		c.pu32(f.Fid)
		c.pname(f.Uname, NameLen)
		c.pname(f.Aname, NameLen)
	case Rattach:
		c.pu32(f.Fid)
		c.pqid(f.Qid)
	case Tauth:
		c.pu32(f.Fid)
		c.pname(f.Uname, NameLen)
		c.pname(f.Chal, NameLen)
	case Rauth:
		c.pname(f.Chal, NameLen)
	case Tclone:
		c.pu32(f.Fid)
		c.pu32(f.Newfid)
	case Rclone, Rclunk, Rremove, Rwstat:
		c.pu32(f.Fid)
	case Twalk:
		c.pu32(f.Fid)
		c.pname(f.Name, NameLen)
	case Rwalk, Ropen, Rcreate, Rclwalk:
		c.pu32(f.Fid)
		c.pqid(f.Qid)
	case Tclwalk:
		c.pu32(f.Fid)
		c.pu32(f.Newfid)
		c.pname(f.Name, NameLen)
	case Topen:
		c.pu32(f.Fid)
		c.pu8(f.Mode)
	case Tcreate:
		c.pu32(f.Fid)
		c.pname(f.Name, NameLen)
		c.pu32(f.Perm)
		c.pu8(f.Mode)
	case Tread:
		c.pu32(f.Fid)
		c.pu64(uint64(f.Offset))
		c.pu16(f.Count)
	case Rread:
		if len(f.Data) > MaxFData {
			return nil, ErrDataLen
		}
		c.pu32(f.Fid)
		c.pu16(uint16(len(f.Data)))
		c.buf = append(c.buf, f.Data...)
	case Twrite:
		if len(f.Data) > MaxFData {
			return nil, ErrDataLen
		}
		c.pu32(f.Fid)
		c.pu64(uint64(f.Offset))
		c.pu16(uint16(len(f.Data)))
		c.buf = append(c.buf, f.Data...)
	case Rwrite:
		c.pu32(f.Fid)
		c.pu16(f.Count)
	case Tclunk, Tremove, Tstat:
		c.pu32(f.Fid)
	case Rstat:
		c.pu32(f.Fid)
		var err error
		c.buf, err = vfs.MarshalDir(c.buf, f.Stat)
		if err != nil {
			return nil, err
		}
	case Twstat:
		c.pu32(f.Fid)
		var err error
		c.buf, err = vfs.MarshalDir(c.buf, f.Stat)
		if err != nil {
			return nil, err
		}
	default:
		return nil, ErrBadType
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.buf) > MaxMsg {
		return nil, ErrTooBig
	}
	binary.LittleEndian.PutUint32(c.buf, uint32(len(c.buf)))
	return c.buf, nil
}

// UnmarshalFcall decodes one wire message (convM2S). The Fcall copies
// everything it keeps, so p may be recycled once it returns.
func UnmarshalFcall(p []byte) (*Fcall, error) {
	f := new(Fcall)
	if err := unmarshalInto(p, f); err != nil {
		return nil, err
	}
	f.Data = bytes.Clone(f.Data)
	return f, nil
}

// decode is how the client's demultiplexer and the server's read loop
// take a message off the wire: it decodes msg in place into f, which
// owns msg afterwards. An Rread's or Twrite's Data aliases msg, which
// becomes f.blk (§2.4: the data goes up by ownership, not by copy);
// every other message keeps only copies, and msg goes back to the pool
// at once, as it does when the message is malformed.
func decode(msg []byte, f *Fcall) error {
	err := unmarshalInto(msg, f)
	if err == nil && f.Data != nil {
		f.blk = block.FromBytes(msg)
		return nil
	}
	block.PutBytes(msg)
	return err
}

// unmarshalInto decodes p into f in place: strings are copied out, but
// an Rread's or Twrite's Data is a slice of p (nil when empty).
func unmarshalInto(p []byte, f *Fcall) error {
	if len(p) < 7 {
		return ErrShortMsg
	}
	size := binary.LittleEndian.Uint32(p)
	if int(size) != len(p) {
		return ErrBadMsg
	}
	c := &coder{buf: p, off: 4}
	*f = Fcall{Type: c.gu8(), Tag: c.gu16()}
	switch f.Type {
	case Tnop, Rnop, Rflush:
	case Tsession, Rsession:
		f.Chal = c.gname(NameLen)
	case Rerror:
		f.Ename = c.gname(ErrLen)
	case Tflush:
		f.Oldtag = c.gu16()
	case Tattach:
		f.Fid = c.gu32()
		f.Uname = c.gname(NameLen)
		f.Aname = c.gname(NameLen)
	case Rattach:
		f.Fid = c.gu32()
		f.Qid = c.gqid()
	case Tauth:
		f.Fid = c.gu32()
		f.Uname = c.gname(NameLen)
		f.Chal = c.gname(NameLen)
	case Rauth:
		f.Chal = c.gname(NameLen)
	case Tclone:
		f.Fid = c.gu32()
		f.Newfid = c.gu32()
	case Rclone, Rclunk, Rremove, Rwstat:
		f.Fid = c.gu32()
	case Twalk:
		f.Fid = c.gu32()
		f.Name = c.gname(NameLen)
	case Rwalk, Ropen, Rcreate, Rclwalk:
		f.Fid = c.gu32()
		f.Qid = c.gqid()
	case Tclwalk:
		f.Fid = c.gu32()
		f.Newfid = c.gu32()
		f.Name = c.gname(NameLen)
	case Topen:
		f.Fid = c.gu32()
		f.Mode = c.gu8()
	case Tcreate:
		f.Fid = c.gu32()
		f.Name = c.gname(NameLen)
		f.Perm = c.gu32()
		f.Mode = c.gu8()
	case Tread:
		f.Fid = c.gu32()
		f.Offset = int64(c.gu64())
		f.Count = c.gu16()
	case Rread:
		f.Fid = c.gu32()
		n := int(c.gu16())
		if c.err == nil && (n > MaxFData || c.off+n > len(p)) {
			return ErrBadMsg
		}
		if c.err == nil {
			f.Data = c.data(n)
			f.Count = uint16(n)
		}
	case Twrite:
		f.Fid = c.gu32()
		f.Offset = int64(c.gu64())
		n := int(c.gu16())
		if c.err == nil && (n > MaxFData || c.off+n > len(p)) {
			return ErrBadMsg
		}
		if c.err == nil {
			f.Data = c.data(n)
			f.Count = uint16(n)
		}
	case Rwrite:
		f.Fid = c.gu32()
		f.Count = c.gu16()
	case Tclunk, Tremove, Tstat:
		f.Fid = c.gu32()
	case Rstat, Twstat:
		f.Fid = c.gu32()
		if c.err == nil {
			if c.off+vfs.DirRecLen > len(p) {
				return ErrBadMsg
			}
			d, err := vfs.UnmarshalDir(p[c.off:])
			if err != nil {
				// The record is long enough, so a name field
				// with no NUL is what failed, as in gname.
				return ErrNameLen
			}
			f.Stat = d
			c.off += vfs.DirRecLen
		}
	default:
		return ErrBadType
	}
	if c.err != nil {
		return c.err
	}
	return nil
}
