// Package vfs defines the file-system vocabulary shared by every
// subsystem in the repository: qids, directory entries, permission and
// open-mode bits, the canonical Plan 9 error strings, and the Node /
// Handle / Device interfaces through which name spaces, device drivers,
// the mount driver, and exportfs all speak to one another.
//
// The model follows the 1993 Plan 9 kernel: a Device produces a root
// Node on Attach; Nodes are cheap immutable path handles that can be
// walked one component at a time (the 9P walk message); opening a Node
// yields a Handle carrying the open-file state (the 9P open message);
// reads and writes are offset-addressed as in 9P read/write.
package vfs

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// QidType bits, stored in the top byte of a qid as in Plan 9.
const (
	QTDIR    = 0x80 // directory
	QTAPPEND = 0x40 // append-only
	QTEXCL   = 0x20 // exclusive use
	QTAUTH   = 0x08 // authentication file
	QTFILE   = 0x00 // plain file
)

// Qid uniquely identifies a file on a server: Path is unique per file,
// Vers increments on modification, Type mirrors the high mode bits.
type Qid struct {
	Path uint64
	Vers uint32
	Type uint8
}

// IsDir reports whether the qid names a directory.
func (q Qid) IsDir() bool { return q.Type&QTDIR != 0 }

func (q Qid) String() string {
	t := ""
	if q.Type&QTDIR != 0 {
		t += "d"
	}
	if q.Type&QTAPPEND != 0 {
		t += "a"
	}
	if q.Type&QTEXCL != 0 {
		t += "l"
	}
	return fmt.Sprintf("(%#x %d %s)", q.Path, q.Vers, t)
}

// Mode (permission) bits. The high bits mirror QidType<<24.
const (
	DMDIR    = 0x80000000 // directory
	DMAPPEND = 0x40000000 // append only
	DMEXCL   = 0x20000000 // exclusive use
	DMAUTH   = 0x08000000
	DMREAD   = 0x4 // read permission (per owner/group/other triplet)
	DMWRITE  = 0x2
	DMEXEC   = 0x1
)

// Open modes, as passed to Node.Open and carried by 9P Topen.
const (
	OREAD   = 0  // read only
	OWRITE  = 1  // write only
	ORDWR   = 2  // read and write
	OEXEC   = 3  // execute (read but check execute permission)
	OTRUNC  = 16 // truncate on open
	ORCLOSE = 64 // remove on last close
)

// Dir is a directory entry / stat result, the 9P Dir structure.
type Dir struct {
	Name   string
	Qid    Qid
	Mode   uint32
	Atime  uint32
	Mtime  uint32
	Length int64
	Uid    string
	Gid    string
	Muid   string
}

// IsDir reports whether the entry describes a directory.
func (d Dir) IsDir() bool { return d.Mode&DMDIR != 0 }

// Canonical error strings, as the Plan 9 kernel spells them. 9P carries
// errors as strings, so errors survive marshaling across machines by
// value; errors.Is works locally because the vars are compared by
// message in Eq.
var (
	ErrNotExist  = errors.New("file does not exist")
	ErrPerm      = errors.New("permission denied")
	ErrNotDir    = errors.New("not a directory")
	ErrIsDir     = errors.New("file is a directory")
	ErrBadUseFd  = errors.New("inappropriate use of fd")
	ErrBadOffset = errors.New("bad offset in directory read")
	ErrInUse     = errors.New("file in use")
	ErrNoCreate  = errors.New("mounted directory forbids creation")
	ErrShutdown  = errors.New("device shut down")
	ErrHungup    = errors.New("i/o on hungup channel")
	ErrBadCtl    = errors.New("bad process or channel control request")
	ErrBadArg    = errors.New("bad arg in system call")
	ErrNoNet     = errors.New("network unreachable")
	ErrConnRef   = errors.New("connection refused")
	ErrTimedOut  = errors.New("connection timed out")
	ErrClosed    = errors.New("connection closed")
	ErrBadSpec   = errors.New("bad attach specifier")
	ErrTooLong   = errors.New("name too long")
	ErrExists    = errors.New("file already exists")
)

// SameError reports whether err carries the same message as target.
// Errors that cross a 9P boundary are re-created from their strings, so
// pointer identity is not preserved; compare by message.
func SameError(err, target error) bool {
	if err == nil || target == nil {
		return err == target
	}
	return err == target || err.Error() == target.Error()
}

// Node is a handle to a file or directory on some server, before open.
// Implementations must be safe for concurrent use; Walk must not mutate
// the receiver (it returns a new Node, mirroring 9P clone+walk).
type Node interface {
	// Stat returns the directory entry for the node.
	Stat() (Dir, error)
	// Walk descends one path element. name is never "", ".", or a
	// path containing '/'. Walking ".." from a device root is handled
	// by the name space, not the device.
	Walk(name string) (Node, error)
	// Open prepares the node for I/O and returns the open-file state.
	Open(mode int) (Handle, error)
}

// Creator is implemented by nodes (directories) that support create.
type Creator interface {
	// Create makes name in the receiver directory and opens it.
	Create(name string, perm uint32, mode int) (Node, Handle, error)
}

// Remover is implemented by nodes that support remove.
type Remover interface {
	Remove() error
}

// Wstater is implemented by nodes that support attribute rewrite.
type Wstater interface {
	Wstat(d Dir) error
}

// Handle is an open file. Read and Write are offset-addressed as in
// 9P; devices whose contents are streams ignore the offset.
// Directories are read via ReadDir instead of Read.
type Handle interface {
	Read(p []byte, off int64) (int, error)
	Write(p []byte, off int64) (int, error)
	Close() error
}

// Stable is implemented by handles whose contents are stored bytes:
// a read at an offset is repeatable, and the contents change only
// when the file's Qid.Vers moves. A read cache keyed by (qid.path,
// qid.vers) may hold such a handle's data. Live device files —
// streams, ctl files, synthesized stats — must not implement it (or
// must report false): their reads consume or compute.
type Stable interface {
	Stable() bool
}

// DirReader is implemented by handles of directories: it returns the
// full list of entries; the caller (name space or 9P server) handles
// offsets and marshaling.
type DirReader interface {
	ReadDir() ([]Dir, error)
}

// Device produces a root node for a mount spec. Devices are the
// kernel-resident file servers of the paper (§2.2): ether, tcp, il,
// udp, cs, dns, ramfs, the mount driver, and so on.
type Device interface {
	// Name returns the device name, e.g. "ether", "tcp", "ram".
	Name() string
	// Attach returns the root of the device's tree for spec
	// (usually ""), as 9P attach does.
	Attach(spec string) (Node, error)
}

var qidPath atomic.Uint64

// NewQidPath returns a process-unique qid path. Devices that do not
// manage their own qid spaces draw from this counter.
func NewQidPath() uint64 { return qidPath.Add(1) }

// AccessMode extracts the access portion (OREAD..OEXEC) of an open mode.
func AccessMode(mode int) int { return mode &^ (OTRUNC | ORCLOSE) }

// ModeReadable reports whether an open with the given mode permits reads.
func ModeReadable(mode int) bool {
	switch AccessMode(mode) {
	case OREAD, ORDWR, OEXEC:
		return true
	}
	return false
}

// ModeWritable reports whether an open with the given mode permits writes.
func ModeWritable(mode int) bool {
	switch AccessMode(mode) {
	case OWRITE, ORDWR:
		return true
	}
	return false
}
