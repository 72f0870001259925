// Package devtree is the framework on which every kernel-resident
// device file system in this repository is built: the analogue of the
// Plan 9 kernel's devattach/devwalk/devdirread helpers (§2.2 of the
// paper: "Each device driver is a kernel-resident file system").
//
// A device describes its tree with DirNode (directories whose entries
// are listed and walked to on demand) and FileNode (files whose open
// produces a Handle). Common handle shapes — read-only generated text,
// ctl files parsing ASCII commands, query files — have ready-made
// adapters so drivers contain only their own semantics. The devices
// with a clone file and numbered conversation directories, the
// Ethernet driver and the protocol devices, share one conversation
// table as well: Table. It generates a conversation's directory from
// the file list the device gives it, as the kernel's devgen generates
// entries from a conversation and a file type: the directory and its
// files are one node array, built on the first walk of a tenancy and
// walked into without allocating after that, and an open hands the
// device the tenancy and the file's kind.
package devtree

import (
	"strings"
	"sync"

	"repro/internal/vclock"
	"repro/internal/vfs"
)

// kerndate is the time every device file carries, as Plan 9's devdir
// stamps the kernel's build date: the instant every simulation starts.
var kerndate = uint32(vclock.Epoch.Unix())

// MkDir fills a Dir for a directory with conventional ownership.
func MkDir(name, owner string, perm uint32) vfs.Dir {
	return entry(name, owner, vfs.DMDIR|perm, vfs.NewQidPath())
}

// MkFile fills a Dir for a plain file.
func MkFile(name, owner string, perm uint32) vfs.Dir {
	return entry(name, owner, perm, vfs.NewQidPath())
}

// entry fills a Dir with mode and the qid path a device gave the file.
func entry(name, owner string, mode uint32, path uint64) vfs.Dir {
	typ := uint8(vfs.QTFILE)
	if mode&vfs.DMDIR != 0 {
		typ = vfs.QTDIR
	}
	return vfs.Dir{
		Name:  name,
		Qid:   vfs.Qid{Path: path, Type: typ},
		Mode:  mode,
		Uid:   owner,
		Gid:   owner,
		Muid:  owner,
		Atime: kerndate,
		Mtime: kerndate,
	}
}

// DirNode is a directory whose children are produced on demand.
type DirNode struct {
	Entry vfs.Dir
	// List returns the directory's entries for a directory read.
	List func() ([]vfs.Dir, error)
	// Lookup walks to a named child.
	Lookup func(name string) (vfs.Node, error)
}

var (
	_ vfs.Node      = (*DirNode)(nil)
	_ vfs.DirReader = (*dirHandle)(nil)
)

// Stat implements vfs.Node.
func (d *DirNode) Stat() (vfs.Dir, error) { return d.Entry, nil }

// Walk implements vfs.Node.
func (d *DirNode) Walk(name string) (vfs.Node, error) {
	if d.Lookup == nil {
		return nil, vfs.ErrNotExist
	}
	return d.Lookup(name)
}

// Open implements vfs.Node; directories open read-only.
func (d *DirNode) Open(mode int) (vfs.Handle, error) {
	if vfs.AccessMode(mode) != vfs.OREAD {
		return nil, vfs.ErrIsDir
	}
	return &dirHandle{list: d.List}, nil
}

// dirHandle is an open directory: each read lists it afresh.
type dirHandle struct{ list func() ([]vfs.Dir, error) }

func (h *dirHandle) ReadDir() ([]vfs.Dir, error) {
	if h.list == nil {
		return nil, nil
	}
	return h.list()
}

func (h *dirHandle) Read(p []byte, off int64) (int, error) {
	ents, err := h.ReadDir()
	if err != nil {
		return 0, err
	}
	return vfs.ReadDirAt(ents, p, off)
}

func (h *dirHandle) Write(p []byte, off int64) (int, error) {
	return 0, vfs.ErrIsDir
}

func (h *dirHandle) Close() error { return nil }

// StaticDir is a directory over a fixed name → Node map, listed in
// order. Neither may be mutated afterwards.
func StaticDir(entry vfs.Dir, children map[string]vfs.Node, order []string) *DirNode {
	return &DirNode{
		Entry: entry,
		List: func() ([]vfs.Dir, error) {
			ents := make([]vfs.Dir, 0, len(order))
			for _, name := range order {
				d, err := children[name].Stat()
				if err != nil {
					return nil, err
				}
				ents = append(ents, d)
			}
			return ents, nil
		},
		Lookup: func(name string) (vfs.Node, error) {
			if c, ok := children[name]; ok {
				return c, nil
			}
			return nil, vfs.ErrNotExist
		},
	}
}

// FileNode is a plain file; OpenFn supplies the per-open state.
type FileNode struct {
	Entry  vfs.Dir
	OpenFn func(mode int) (vfs.Handle, error)
	// StatFn, if non-nil, overrides Entry (e.g. to report a live
	// length); it receives the static entry as a template.
	StatFn func(vfs.Dir) (vfs.Dir, error)
}

var _ vfs.Node = (*FileNode)(nil)

// Stat implements vfs.Node.
func (f *FileNode) Stat() (vfs.Dir, error) {
	if f.StatFn != nil {
		return f.StatFn(f.Entry)
	}
	return f.Entry, nil
}

// Walk implements vfs.Node.
func (f *FileNode) Walk(name string) (vfs.Node, error) { return nil, vfs.ErrNotDir }

// Open implements vfs.Node.
func (f *FileNode) Open(mode int) (vfs.Handle, error) {
	if f.OpenFn == nil {
		return nil, vfs.ErrPerm
	}
	return f.OpenFn(mode)
}

// ReadAtString serves an offset read from a string; the standard way a
// device answers reads of a generated text file.
func ReadAtString(p []byte, off int64, s string) (int, error) {
	if off >= int64(len(s)) {
		return 0, nil
	}
	return copy(p, s[off:]), nil
}

// snapshot is a generated file's text as a reader pages through it: a
// read from offset 0, or the first read, generates it afresh, and reads
// further on serve the same generation.
type snapshot struct {
	mu   sync.Mutex
	got  bool
	text string
}

// get runs with s unlocked: it renders another package's state, under
// that package's locks.
func (s *snapshot) read(p []byte, off int64, get func() (string, error)) (int, error) {
	s.mu.Lock()
	text, fresh := s.text, !s.got || off == 0
	s.mu.Unlock()
	if fresh {
		var err error
		if text, err = get(); err != nil {
			return 0, err
		}
		s.mu.Lock()
		s.text, s.got = text, true
		s.mu.Unlock()
	}
	return ReadAtString(p, off, text)
}

// TextHandle snapshots Get() at first read and serves it at offsets, so
// a reader paging through a status file sees one consistent generation.
type TextHandle struct {
	Get func() (string, error)

	snap snapshot
}

var _ vfs.Handle = (*TextHandle)(nil)

// Read implements vfs.Handle.
func (h *TextHandle) Read(p []byte, off int64) (int, error) {
	return h.snap.read(p, off, h.Get)
}

// Write implements vfs.Handle.
func (h *TextHandle) Write(p []byte, off int64) (int, error) {
	return 0, vfs.ErrPerm
}

// Close implements vfs.Handle.
func (h *TextHandle) Close() error { return nil }

// TextFile builds a read-only file whose content is generated per open.
func TextFile(entry vfs.Dir, get func() (string, error)) *FileNode {
	return &FileNode{
		Entry: entry,
		OpenFn: func(mode int) (vfs.Handle, error) {
			if vfs.ModeWritable(mode) {
				return nil, vfs.ErrPerm
			}
			return &TextHandle{Get: get}, nil
		},
	}
}

// CtlHandle is the standard control-file shape (§2.4.1: "ioctl is
// replaced by the ctl file"): each write is an ASCII command handed to
// Cmd; reads return Get() (typically the connection number).
type CtlHandle struct {
	Cmd   func(cmd string) error
	Get   func() (string, error)
	OnEnd func()

	snap snapshot
}

var _ vfs.Handle = (*CtlHandle)(nil)

// Read implements vfs.Handle.
func (h *CtlHandle) Read(p []byte, off int64) (int, error) {
	if h.Get == nil {
		return 0, nil
	}
	return h.snap.read(p, off, h.Get)
}

// Write implements vfs.Handle. Each write is one command (ctlCmd).
func (h *CtlHandle) Write(p []byte, off int64) (int, error) {
	if h.Cmd == nil {
		return 0, vfs.ErrPerm
	}
	if err := h.Cmd(ctlCmd(p)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ctlCmd is the command a ctl write carries: the write with a trailing
// newline stripped, as Plan 9 ctl files do for echo(1) convenience.
func ctlCmd(p []byte) string { return strings.TrimSuffix(string(p), "\n") }

// Close implements vfs.Handle.
func (h *CtlHandle) Close() error {
	if h.OnEnd != nil {
		h.OnEnd()
	}
	return nil
}

// QueryFile is the query-file shape of §4.2's /net/cs and /net/dns: a
// client writes a request and reads the answer back one line per read.
// Each write runs query and replaces the handle's answer; a failed
// query leaves nothing to read. The lines are served as returned, not
// copied, so query may hand out a slice it shares as long as nobody
// writes to it.
func QueryFile(entry vfs.Dir, query func(req string) ([]string, error)) *FileNode {
	return &FileNode{
		Entry: entry,
		OpenFn: func(mode int) (vfs.Handle, error) {
			return &queryHandle{query: query}, nil
		},
	}
}

// queryHandle is one client's query context.
type queryHandle struct {
	query func(req string) ([]string, error)

	mu    sync.Mutex
	lines []string // answer lines not yet finished; lines[0] is being read
	off   int      // bytes of lines[0] read so far, its newline the last
}

var _ vfs.Handle = (*queryHandle)(nil)

// Write implements vfs.Handle: one query per write.
func (h *queryHandle) Write(p []byte, off int64) (int, error) {
	lines, err := h.query(string(p))
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lines, h.off = nil, 0
	if err != nil {
		return 0, err
	}
	h.lines = lines
	return len(p), nil
}

// Read implements vfs.Handle: one answer line per read, and its
// newline. A buffer shorter than the line gets the prefix that fits and
// the next read resumes mid-line, so no byte of an answer is ever
// silently lost.
func (h *queryHandle) Read(p []byte, off int64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.lines) == 0 {
		return 0, nil
	}
	line := h.lines[0]
	n := 0
	if h.off < len(line) {
		n = copy(p, line[h.off:])
	}
	if h.off+n == len(line) && n < len(p) {
		p[n] = '\n'
		n++
	}
	if h.off += n; h.off > len(line) {
		h.lines, h.off = h.lines[1:], 0
	}
	return n, nil
}

// Close implements vfs.Handle.
func (h *queryHandle) Close() error { return nil }
