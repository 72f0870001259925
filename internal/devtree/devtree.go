// Package devtree is the framework on which every kernel-resident
// device file system in this repository is built: the analogue of the
// Plan 9 kernel's devattach/devwalk/devdirread helpers (§2.2 of the
// paper: "Each device driver is a kernel-resident file system").
//
// A device describes its tree with DirNode (directories whose entries
// may be generated dynamically, like the numbered conversation
// directories of a protocol device) and FileNode (files whose open
// produces a Handle). Common handle shapes — read-only generated text,
// ctl files parsing ASCII commands, byte streams — have ready-made
// adapters so drivers contain only their own semantics. The devices
// with a clone file and numbered conversation directories, the
// Ethernet driver and the protocol devices, share one conversation
// table as well: Table.
package devtree

import (
	"strings"
	"sync"
	"time"

	"repro/internal/vfs"
)

// Now returns the time in seconds for Dir stamps.
func Now() uint32 { return uint32(time.Now().Unix()) } //netvet:ignore realtime file mtimes are cosmetic wall-clock stamps

// MkDir fills a Dir for a directory with conventional ownership.
func MkDir(name, owner string, perm uint32) vfs.Dir {
	return vfs.Dir{
		Name:  name,
		Qid:   vfs.Qid{Path: vfs.NewQidPath(), Type: vfs.QTDIR},
		Mode:  vfs.DMDIR | perm,
		Uid:   owner,
		Gid:   owner,
		Muid:  owner,
		Atime: Now(),
		Mtime: Now(),
	}
}

// MkFile fills a Dir for a plain file.
func MkFile(name, owner string, perm uint32) vfs.Dir {
	return vfs.Dir{
		Name:  name,
		Qid:   vfs.Qid{Path: vfs.NewQidPath(), Type: vfs.QTFILE},
		Mode:  perm,
		Uid:   owner,
		Gid:   owner,
		Muid:  owner,
		Atime: Now(),
		Mtime: Now(),
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
	return &dirHandle{d: d}, nil
}

type dirHandle struct{ d *DirNode }

func (h *dirHandle) ReadDir() ([]vfs.Dir, error) {
	if h.d.List == nil {
		return nil, nil
	}
	return h.d.List()
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

// StaticDir builds a DirNode over a fixed name → Node map. The map must
// not be mutated afterwards.
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
			c, ok := children[name]
			if !ok {
				return nil, vfs.ErrNotExist
			}
			return c, nil
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

// TextHandle snapshots Get() at first read and serves it at offsets, so
// a reader paging through a status file sees one consistent generation.
type TextHandle struct {
	Get func() (string, error)

	mu   sync.Mutex
	got  bool
	text string
}

var _ vfs.Handle = (*TextHandle)(nil)

// Read implements vfs.Handle.
func (h *TextHandle) Read(p []byte, off int64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.got || off == 0 {
		s, err := h.Get()
		if err != nil {
			return 0, err
		}
		h.text, h.got = s, true
	}
	return ReadAtString(p, off, h.text)
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

	mu   sync.Mutex
	got  bool
	text string
}

var _ vfs.Handle = (*CtlHandle)(nil)

// Read implements vfs.Handle.
func (h *CtlHandle) Read(p []byte, off int64) (int, error) {
	if h.Get == nil {
		return 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.got || off == 0 {
		s, err := h.Get()
		if err != nil {
			return 0, err
		}
		h.text, h.got = s, true
	}
	return ReadAtString(p, off, h.text)
}

// Write implements vfs.Handle. Each write is one command; a trailing
// newline is stripped, as Plan 9 ctl files do for echo(1) convenience.
func (h *CtlHandle) Write(p []byte, off int64) (int, error) {
	if h.Cmd == nil {
		return 0, vfs.ErrPerm
	}
	cmd := strings.TrimSuffix(string(p), "\n")
	if err := h.Cmd(cmd); err != nil {
		return 0, err
	}
	return len(p), nil
}

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
	lines []string // answer lines not yet started
	rem   string   // unread tail of the current line: short reads resume
}

var _ vfs.Handle = (*queryHandle)(nil)

// Write implements vfs.Handle: one query per write.
func (h *queryHandle) Write(p []byte, off int64) (int, error) {
	lines, err := h.query(string(p))
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lines, h.rem = nil, ""
	if err != nil {
		return 0, err
	}
	h.lines = lines
	return len(p), nil
}

// Read implements vfs.Handle: one answer line per read. A buffer
// shorter than the line gets the prefix that fits and the next read
// resumes mid-line, so no byte of an answer is ever silently lost.
func (h *queryHandle) Read(p []byte, off int64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rem == "" {
		if len(h.lines) == 0 {
			return 0, nil
		}
		h.rem = h.lines[0] + "\n"
		h.lines = h.lines[1:]
	}
	n := copy(p, h.rem)
	h.rem = h.rem[n:]
	return n, nil
}

// Close implements vfs.Handle.
func (h *queryHandle) Close() error { return nil }
