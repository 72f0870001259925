// Package ramfs is an in-memory hierarchical file system with full
// create/remove/wstat support. Machines use one as the root of their
// name space (/, /tmp, /lib, /n, ...); it also serves as the reference
// file server for 9P, mount-driver, and exportfs tests, and as the
// cache behind ftpfs.
package ramfs

import (
	"sync/atomic"

	"repro/internal/devtree"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// FS is a RAM file system; it implements vfs.Device.
type FS struct {
	mu    vclock.Lock
	root  *file
	owner string

	// ck, when set, stamps times (see NewTimed); hermetic also
	// numbers qid paths up from qid (guarded by mu) instead of drawing
	// on the process-wide counter (see NewClock).
	ck       vclock.Clock
	hermetic bool
	qid      uint64
}

type file struct {
	fs       *FS
	parent   *file
	dir      vfs.Dir
	data     []byte           // plain files
	children map[string]*file // directories
	order    []string         // stable directory order
	open     int              // open handle count (for DMEXCL / ORCLOSE)
	gone     bool             // removed while open
}

// New returns an empty file system whose root is owned by owner.
// Qid paths draw on the process-wide counter, so every server a
// process assembles hands out distinct qids — what a namespace mixing
// many devices (and any cache keyed by qid) wants.
func New(owner string) *FS { return newFS(&FS{owner: owner}) }

// NewTimed is New with time stamps from ck: its qids stay
// process-unique, as a server that joins a process-wide name space
// needs, and its times follow the simulation's clock rather than the
// host's, so what it utters is a function of the simulation.
func NewTimed(owner string, ck vclock.Clock) *FS { return newFS(&FS{owner: owner, ck: ck}) }

// NewClock returns a hermetic file system: qid paths count up from
// the root and time stamps come from ck, so every byte the server
// utters — qids in Rcreate and Rwalk, times in Rstat — is a pure
// function of the operations applied to it. Plan 9 qids are
// per-server anyway; a server that owns a whole conversation (the
// torture harness's ramfs, a simulation fixture) numbers hermetically
// so the same-seed chaos gates can pin 9P traffic byte for byte.
// Servers that join a process-wide namespace should keep New's
// process-unique numbering.
func NewClock(owner string, ck vclock.Clock) *FS {
	return newFS(&FS{owner: owner, ck: ck, hermetic: true})
}

func newFS(fs *FS) *FS {
	fs.mu.Init(fs.ck)
	fs.root = &file{
		fs:       fs,
		dir:      fs.mkDir("/", 0775),
		children: make(map[string]*file),
	}
	return fs
}

// mkDir and mkFile build Dir entries, restamped when the file system
// has a clock and renumbered when it is hermetic. Callers hold fs.mu
// (or are the constructor, before the FS is shared).
func (fs *FS) mkDir(name string, perm uint32) vfs.Dir {
	d := devtree.MkDir(name, fs.owner, perm)
	fs.restamp(&d)
	return d
}

func (fs *FS) mkFile(name string, perm uint32) vfs.Dir {
	d := devtree.MkFile(name, fs.owner, perm)
	fs.restamp(&d)
	return d
}

func (fs *FS) restamp(d *vfs.Dir) {
	if fs.ck == nil {
		return
	}
	if fs.hermetic {
		fs.qid++
		d.Qid.Path = fs.qid
	}
	t := uint32(fs.ck.Now().Unix())
	d.Atime, d.Mtime = t, t
}

// touch stamps d modified now. A file system without a clock has no
// now: its files keep the kernel date devtree stamped them with.
func (fs *FS) touch(d *vfs.Dir) {
	if fs.ck != nil {
		d.Mtime = uint32(fs.ck.Now().Unix())
	}
}

// Name implements vfs.Device.
func (fs *FS) Name() string { return "ram" }

// Attach implements vfs.Device.
func (fs *FS) Attach(spec string) (vfs.Node, error) {
	if spec != "" {
		return nil, vfs.ErrBadSpec
	}
	return node{f: fs.root}, nil
}

// Root returns the root node directly.
func (fs *FS) Root() vfs.Node { return node{f: fs.root} }

// MkdirAll creates a directory path (elements separated by /) and
// returns nil if it already exists as a directory. A convenience for
// world assembly; path must be clean and absolute-like ("a/b/c").
func (fs *FS) MkdirAll(path string, perm uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.root
	start := 0
	for start < len(path) {
		end := start
		for end < len(path) && path[end] != '/' {
			end++
		}
		name := path[start:end]
		start = end + 1
		if name == "" {
			continue
		}
		child, ok := f.children[name]
		if !ok {
			child = &file{
				fs:       fs,
				parent:   f,
				dir:      fs.mkDir(name, perm),
				children: make(map[string]*file),
			}
			f.children[name] = child
			f.order = append(f.order, name)
		} else if !child.dir.IsDir() {
			return vfs.ErrNotDir
		}
		f = child
	}
	return nil
}

// WriteFile creates (or truncates) a plain file at path with contents.
func (fs *FS) WriteFile(path string, contents []byte, perm uint32) error {
	dir, name := splitPath(path)
	if name == "" {
		return vfs.ErrBadArg
	}
	if dir != "" {
		if err := fs.MkdirAll(dir, 0775); err != nil {
			return err
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.lookupLocked(dir)
	if err != nil {
		return err
	}
	child, ok := f.children[name]
	if !ok {
		child = &file{fs: fs, parent: f, dir: fs.mkFile(name, perm)}
		f.children[name] = child
		f.order = append(f.order, name)
	}
	if child.dir.IsDir() {
		return vfs.ErrIsDir
	}
	child.data = append([]byte(nil), contents...)
	child.dir.Length = int64(len(child.data))
	child.dir.Qid.Vers++
	fs.touch(&child.dir)
	return nil
}

// ReadFile returns a copy of the contents of the plain file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, err := fs.lookupLocked(path)
	if err != nil {
		return nil, err
	}
	if f.dir.IsDir() {
		return nil, vfs.ErrIsDir
	}
	return append([]byte(nil), f.data...), nil
}

func splitPath(path string) (dir, name string) {
	last := -1
	for i := range len(path) {
		if path[i] == '/' {
			last = i
		}
	}
	if last < 0 {
		return "", path
	}
	return path[:last], path[last+1:]
}

func (fs *FS) lookupLocked(path string) (*file, error) {
	f := fs.root
	start := 0
	for start < len(path) {
		end := start
		for end < len(path) && path[end] != '/' {
			end++
		}
		name := path[start:end]
		start = end + 1
		if name == "" {
			continue
		}
		child, ok := f.children[name]
		if !ok {
			return nil, vfs.ErrNotExist
		}
		f = child
	}
	return f, nil
}

// node is the vfs.Node view of a file.
type node struct{ f *file }

var (
	_ vfs.Node    = node{}
	_ vfs.Creator = node{}
	_ vfs.Remover = node{}
	_ vfs.Wstater = node{}
)

// Stat implements vfs.Node.
func (n node) Stat() (vfs.Dir, error) {
	n.f.fs.mu.Lock()
	defer n.f.fs.mu.Unlock()
	return n.f.dir, nil
}

// Walk implements vfs.Node.
func (n node) Walk(name string) (vfs.Node, error) {
	n.f.fs.mu.Lock()
	defer n.f.fs.mu.Unlock()
	if !n.f.dir.IsDir() {
		return nil, vfs.ErrNotDir
	}
	if name == ".." {
		if n.f.parent == nil {
			return n, nil
		}
		return node{f: n.f.parent}, nil
	}
	child, ok := n.f.children[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return node{f: child}, nil
}

// Open implements vfs.Node.
func (n node) Open(mode int) (vfs.Handle, error) {
	f := n.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gone {
		return nil, vfs.ErrNotExist
	}
	if f.dir.IsDir() {
		if vfs.AccessMode(mode) != vfs.OREAD || mode&(vfs.OTRUNC|vfs.ORCLOSE) != 0 {
			return nil, vfs.ErrIsDir
		}
		return &dirHandle{f: f}, nil
	}
	if f.dir.Mode&vfs.DMEXCL != 0 && f.open > 0 {
		return nil, vfs.ErrInUse
	}
	if mode&vfs.OTRUNC != 0 && f.dir.Mode&vfs.DMAPPEND == 0 {
		f.data = nil
		f.dir.Length = 0
		f.dir.Qid.Vers++
	}
	f.open++
	return &fileHandle{f: f, mode: mode}, nil
}

// Create implements vfs.Creator.
func (n node) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	f := n.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if !f.dir.IsDir() {
		return nil, nil, vfs.ErrNotDir
	}
	if f.gone {
		return nil, nil, vfs.ErrNotExist
	}
	if name == "" || name == "." || name == ".." {
		return nil, nil, vfs.ErrBadArg
	}
	if _, ok := f.children[name]; ok {
		return nil, nil, vfs.ErrExists
	}
	child := &file{fs: f.fs, parent: f}
	if perm&vfs.DMDIR != 0 {
		// Permissions inherit from the parent as in Plan 9:
		// perm & (~0777 | parent&0777) for directories.
		child.dir = f.fs.mkDir(name, perm&(^uint32(0777)|f.dir.Mode&0777)&^vfs.DMDIR)
		child.dir.Mode |= vfs.DMDIR
		child.children = make(map[string]*file)
	} else {
		child.dir = f.fs.mkFile(name, perm&(^uint32(0666)|f.dir.Mode&0666))
	}
	f.children[name] = child
	f.order = append(f.order, name)
	f.dir.Qid.Vers++
	f.fs.touch(&f.dir)
	if child.dir.IsDir() {
		return node{f: child}, &dirHandle{f: child}, nil
	}
	child.open++
	return node{f: child}, &fileHandle{f: child, mode: mode}, nil
}

// Remove implements vfs.Remover.
func (n node) Remove() error {
	f := n.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return removeLocked(f)
}

func removeLocked(f *file) error {
	if f.parent == nil {
		return vfs.ErrPerm // cannot remove the root
	}
	if f.gone {
		return vfs.ErrNotExist
	}
	if f.dir.IsDir() && len(f.children) > 0 {
		return vfs.ErrInUse
	}
	delete(f.parent.children, f.dir.Name)
	for i, nm := range f.parent.order {
		if nm == f.dir.Name {
			f.parent.order = append(f.parent.order[:i], f.parent.order[i+1:]...)
			break
		}
	}
	f.parent.dir.Qid.Vers++
	f.fs.touch(&f.parent.dir)
	f.gone = true
	return nil
}

// Wstat implements vfs.Wstater. Blank fields ("" / ^0) leave the
// attribute unchanged, as in 9P.
func (n node) Wstat(d vfs.Dir) error {
	f := n.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.gone {
		return vfs.ErrNotExist
	}
	if d.Name != "" && d.Name != f.dir.Name {
		if f.parent == nil {
			return vfs.ErrPerm
		}
		if _, ok := f.parent.children[d.Name]; ok {
			return vfs.ErrExists
		}
		delete(f.parent.children, f.dir.Name)
		f.parent.children[d.Name] = f
		for i, nm := range f.parent.order {
			if nm == f.dir.Name {
				f.parent.order[i] = d.Name
				break
			}
		}
		f.dir.Name = d.Name
	}
	if d.Mode != ^uint32(0) && d.Mode != 0 {
		if d.Mode&vfs.DMDIR != f.dir.Mode&vfs.DMDIR {
			return vfs.ErrPerm // cannot change directory bit
		}
		f.dir.Mode = d.Mode
	}
	if d.Gid != "" {
		f.dir.Gid = d.Gid
	}
	if d.Mtime != 0 && d.Mtime != ^uint32(0) {
		f.dir.Mtime = d.Mtime
	}
	f.dir.Qid.Vers++
	return nil
}

type fileHandle struct {
	f    *file
	mode int

	closed atomic.Bool
}

var (
	_ vfs.Handle = (*fileHandle)(nil)
	_ vfs.Stable = (*fileHandle)(nil)
)

// Stable implements vfs.Stable: ram files are stored bytes whose
// Qid.Vers moves on every mutation, so a (qid.path, qid.vers)-keyed
// read cache may hold their data.
func (h *fileHandle) Stable() bool { return true }

// Read implements vfs.Handle.
func (h *fileHandle) Read(p []byte, off int64) (int, error) {
	if !vfs.ModeReadable(h.mode) {
		return 0, vfs.ErrBadUseFd
	}
	f := h.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}

// Write implements vfs.Handle.
func (h *fileHandle) Write(p []byte, off int64) (int, error) {
	if !vfs.ModeWritable(h.mode) {
		return 0, vfs.ErrBadUseFd
	}
	f := h.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.dir.Mode&vfs.DMAPPEND != 0 {
		off = int64(len(f.data))
	}
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], p)
	f.dir.Length = int64(len(f.data))
	f.dir.Qid.Vers++
	f.fs.touch(&f.dir)
	return len(p), nil
}

// Close implements vfs.Handle.
func (h *fileHandle) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	f := h.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.open--
	if h.mode&vfs.ORCLOSE != 0 && !f.gone {
		// Best effort, as in the kernel.
		_ = removeLocked(f)
	}
	return nil
}

type dirHandle struct{ f *file }

var (
	_ vfs.Handle    = (*dirHandle)(nil)
	_ vfs.DirReader = (*dirHandle)(nil)
)

// ReadDir implements vfs.DirReader.
func (h *dirHandle) ReadDir() ([]vfs.Dir, error) {
	f := h.f
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ents := make([]vfs.Dir, 0, len(f.order))
	for _, name := range f.order {
		ents = append(ents, f.children[name].dir)
	}
	return ents, nil
}

// Read implements vfs.Handle.
func (h *dirHandle) Read(p []byte, off int64) (int, error) {
	ents, err := h.ReadDir()
	if err != nil {
		return 0, err
	}
	return vfs.ReadDirAt(ents, p, off)
}

// Write implements vfs.Handle.
func (h *dirHandle) Write(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }

// Close implements vfs.Handle.
func (h *dirHandle) Close() error { return nil }
