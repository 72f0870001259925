// Package ns implements the per-process name space at the heart of the
// paper (§2.1): a mount table mapping points in a file hierarchy to
// file trees served by kernel devices or remote servers, with Plan 9's
// union-directory semantics (MREPL/MBEFORE/MAFTER/MCREATE). "Each
// process assembles a view of the system by building a name space
// connecting its resources."
//
// Differences from the kernel: mount points are canonical lexical
// paths rather than (device,qid) channel identities — the plan9port
// simplification — and union directory listings preserve duplicates,
// exactly as the paper's "ls /net" transcript shows after an import.
package ns

import (
	"io"
	"maps"
	"path"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// Mount/bind flags, as in Plan 9's mount(2).
const (
	MREPL   = 0 // replace the mount point
	MBEFORE = 1 // union: search before existing entries
	MAFTER  = 2 // union: search after existing entries
	MORDER  = 3
	MCREATE = 4 // creations happen in this entry
)

// Namespace is one process's view of the system. It is safe for
// concurrent use.
//
// The mount table is an immutable snapshot, replaced whole: resolve
// loads it once and walks with no lock held, so a Walk that is an RPC
// on a mounted server parks holding nothing a Bind needs. MountNode and
// Unmount copy the table, change the copy and swap it in under mu;
// neither the map nor any union slice is written once published, which
// is what lets Clone share it.
type Namespace struct {
	user string
	root vfs.Node

	mu  sync.Mutex // serializes the writers
	mnt atomic.Pointer[table]
}

// table maps a canonical mount point to the union mounted there.
type table map[string][]entry

type entry struct {
	node   vfs.Node
	create bool
}

// New returns a name space rooted at root for the given user.
func New(user string, root vfs.Node) *Namespace {
	ns := &Namespace{user: user, root: root}
	ns.mnt.Store(&table{})
	return ns
}

// User returns the name space owner's name.
func (ns *Namespace) User() string { return ns.user }

// Clone returns an independent copy of the name space, as rfork(RFNAMEG)
// gives a child its own copy of the parent's name space. The two share
// the current snapshot until either mounts.
func (ns *Namespace) Clone() *Namespace {
	c := &Namespace{user: ns.user, root: ns.root}
	c.mnt.Store(ns.mnt.Load())
	return c
}

// Clean canonicalizes a path within the name space.
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}

// MountNode attaches a served tree (a device root, or a mount-driver
// node speaking 9P to a remote server) at mount point old. A union
// mount (MBEFORE/MAFTER) on a point with no prior mounts seeds the
// union with the underlying directory, so `bind -a` unions with the
// existing contents as in the kernel.
func (ns *Namespace) MountNode(root vfs.Node, old string, flag int) error {
	order := flag & MORDER
	if root == nil || order == MORDER {
		return vfs.ErrBadArg
	}
	old = Clean(old)
	var under vfs.Node
	if _, have := (*ns.mnt.Load())[old]; !have && order != MREPL {
		under, _ = ns.Walk(old)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := *ns.mnt.Load()
	es := cur[old]
	if es == nil && under != nil {
		es = []entry{{node: under}}
	}
	// Always a fresh slice: a resolver may still be reading es.
	e := entry{node: root, create: flag&MCREATE != 0}
	union := make([]entry, 0, len(es)+1)
	switch order {
	case MREPL:
		union = append(union, e)
	case MBEFORE:
		union = append(append(union, e), es...)
	case MAFTER:
		union = append(append(union, es...), e)
	}
	next := maps.Clone(cur)
	next[old] = union
	ns.mnt.Store(&next)
	return nil
}

// MountDevice attaches dev's tree (per spec) at old.
func (ns *Namespace) MountDevice(dev vfs.Device, spec, old string, flag int) error {
	root, err := dev.Attach(spec)
	if err != nil {
		return err
	}
	return ns.MountNode(root, old, flag)
}

// Bind makes the tree visible at name also visible at old, with union
// semantics controlled by flag, as bind(2) does.
func (ns *Namespace) Bind(name, old string, flag int) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	return ns.MountNode(n, old, flag)
}

// Unmount removes all mounts at old. It cannot unmount the root tree.
func (ns *Namespace) Unmount(old string) error {
	old = Clean(old)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := *ns.mnt.Load()
	if _, ok := cur[old]; !ok {
		return vfs.ErrNotExist
	}
	next := maps.Clone(cur)
	delete(next, old)
	ns.mnt.Store(&next)
	return nil
}

// resolve walks name through one snapshot of the mount table, held by
// no lock, and returns the first node at the final element, the union
// mounted there (nil unless the name is a mount point) and the
// canonical path. It walks in place: the prefix walked so far is
// cname[:end] and the elements are scanned by index, so a walk
// allocates nothing beyond what the nodes' own Walks return. The
// union is the mount table's own slice, never written once published,
// so handing it out costs nothing.
func (ns *Namespace) resolve(name string) (vfs.Node, []entry, string, error) {
	cname := Clean(name)
	mnt := *ns.mnt.Load()
	// cur is what the next element is walked in: the union mounted
	// on the walked prefix, or the one node the walk reached, held
	// in one. Only union is returned, so one never leaves the stack.
	var one [1]entry
	union, mounted := mnt["/"]
	cur := union
	if !mounted && ns.root != nil {
		one[0].node = ns.root
		cur = one[:]
	}
	for start := 1; start < len(cname); {
		end := strings.IndexByte(cname[start:], '/')
		if end < 0 {
			end = len(cname)
		} else {
			end += start
		}
		el := cname[start:end]
		start = end + 1
		var next vfs.Node
		lastErr := vfs.ErrNotExist
		for _, c := range cur {
			n, err := c.node.Walk(el)
			if err == nil {
				next = n
				break
			}
			lastErr = err
		}
		walked := cname[:end]
		if union, mounted = mnt[walked]; mounted {
			// A mount on this exact path overrides the walk.
			cur = union
			continue
		}
		if next == nil {
			// The path may still lead to a pure mount point
			// deeper down (a device mounted on a name that only
			// exists in the mount table); keep descending with
			// no underlying candidates.
			if mnt.mountsUnder(walked) {
				cur = nil
				continue
			}
			return nil, nil, "", lastErr
		}
		one[0].node = next
		cur = one[:]
	}
	if len(cur) == 0 {
		return nil, nil, "", vfs.ErrNotExist
	}
	return cur[0].node, union, cname, nil
}

// mountsUnder reports whether any mount point lies strictly below the
// canonical path p.
func (t table) mountsUnder(p string) bool {
	for k := range t {
		if len(k) > len(p) && k[len(p)] == '/' && strings.HasPrefix(k, p) {
			return true
		}
	}
	return false
}

// Walk resolves name to the first node in the union at that path.
func (ns *Namespace) Walk(name string) (vfs.Node, error) {
	n, _, _, err := ns.resolve(name)
	return n, err
}

// Stat returns the directory entry for name.
func (ns *Namespace) Stat(name string) (vfs.Dir, error) {
	n, err := ns.Walk(name)
	if err != nil {
		return vfs.Dir{}, err
	}
	return n.Stat()
}

// Wstat rewrites the attributes of name.
func (ns *Namespace) Wstat(name string, d vfs.Dir) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	w, ok := n.(vfs.Wstater)
	if !ok {
		return vfs.ErrPerm
	}
	return w.Wstat(d)
}

// Remove removes the file at name.
func (ns *Namespace) Remove(name string) error {
	n, err := ns.Walk(name)
	if err != nil {
		return err
	}
	r, ok := n.(vfs.Remover)
	if !ok {
		return vfs.ErrPerm
	}
	return r.Remove()
}

// Open opens name with the given mode and returns an FD.
func (ns *Namespace) Open(name string, mode int) (*FD, error) {
	h, d, cname, err := ns.open(name, mode)
	if err != nil {
		return nil, err
	}
	openFDs.Add(1)
	return &FD{name: cname, h: h, isDir: d.IsDir()}, nil
}

// open resolves name and opens it with mode. It returns the handle,
// the entry Stat gave at open time and the canonical name.
func (ns *Namespace) open(name string, mode int) (vfs.Handle, vfs.Dir, string, error) {
	first, union, cname, err := ns.resolve(name)
	if err != nil {
		return nil, vfs.Dir{}, "", err
	}
	// A directory that is a union point reads as the concatenation
	// of its members.
	d, err := first.Stat()
	if err != nil {
		return nil, vfs.Dir{}, "", err
	}
	if d.IsDir() && len(union) > 1 {
		if vfs.AccessMode(mode) != vfs.OREAD {
			return nil, vfs.Dir{}, "", vfs.ErrIsDir
		}
		var hs []vfs.Handle
		for _, c := range union {
			if cd, err := c.node.Stat(); err != nil || !cd.IsDir() {
				continue
			}
			h, err := c.node.Open(vfs.OREAD)
			if err != nil {
				continue
			}
			hs = append(hs, h)
		}
		return &unionHandle{hs: hs}, d, cname, nil
	}
	h, err := first.Open(mode)
	if err != nil {
		return nil, vfs.Dir{}, "", err
	}
	return h, d, cname, nil
}

// Create creates name (a file, or a directory if perm&DMDIR) and opens
// it with mode. In a union, creation goes to the first member mounted
// with MCREATE, as in the kernel.
func (ns *Namespace) Create(name string, perm uint32, mode int) (*FD, error) {
	h, cname, err := ns.create(name, perm, mode)
	if err != nil {
		return nil, err
	}
	openFDs.Add(1)
	return &FD{name: cname, h: h, isDir: perm&vfs.DMDIR != 0}, nil
}

// create is Create without the FD: the handle and the canonical name.
func (ns *Namespace) create(name string, perm uint32, mode int) (vfs.Handle, string, error) {
	cname := Clean(name)
	dir, base := path.Split(cname)
	if base == "" || base == "/" {
		return nil, "", vfs.ErrBadArg
	}
	target, union, _, err := ns.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if len(union) > 1 {
		target = nil
		for _, c := range union {
			if c.create {
				target = c.node
				break
			}
		}
		if target == nil {
			return nil, "", vfs.ErrNoCreate
		}
	}
	cr, ok := target.(vfs.Creator)
	if !ok {
		return nil, "", vfs.ErrPerm
	}
	_, h, err := cr.Create(base, perm, mode)
	if err != nil {
		return nil, "", err
	}
	return h, cname, nil
}

// readChunk is the length of every read ReadFile makes.
const readChunk = 8192

// ReadFile reads the whole file at name, in reads of readChunk bytes
// at explicit offsets on the handle open returns; it builds no FD. It
// reads straight into the result, sized from the length open statted:
// the file in whole chunks and one more chunk for the read that finds
// its end. Only a file that reports no length, as a device file does,
// or one that has grown since, reads through a chunk of scratch, whose
// reads are appended to the result. A read that fails ends it with
// what was read and the read's error; only the end of the file, a read
// of nothing or io.EOF, ends it with none.
func (ns *Namespace) ReadFile(name string) ([]byte, error) {
	h, d, _, err := ns.open(name, vfs.OREAD)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	var out, scratch []byte
	if size := d.Length; size > 0 {
		out = make([]byte, 0, (size+readChunk-1)/readChunk*readChunk+readChunk)
	}
	for off := int64(0); ; {
		var n int
		if cap(out)-len(out) >= readChunk {
			n, err = h.Read(out[len(out):len(out)+readChunk], off)
			out = out[:len(out)+n]
		} else {
			if scratch == nil {
				scratch = make([]byte, readChunk)
			}
			n, err = h.Read(scratch, off)
			out = append(out, scratch[:n]...)
		}
		off += int64(n)
		switch {
		case err == io.EOF:
			return out, nil
		case err != nil:
			return out, err
		case n == 0:
			return out, nil
		}
	}
}

// WriteFile writes data to the file at name, creating or truncating.
func (ns *Namespace) WriteFile(name string, data []byte, perm uint32) error {
	fd, err := ns.Open(name, vfs.OWRITE|vfs.OTRUNC)
	if err != nil {
		fd, err = ns.Create(name, perm, vfs.OWRITE)
		if err != nil {
			return err
		}
	}
	defer fd.Close()
	_, err = fd.Write(data)
	return err
}

// ReadDir lists the directory at name (union members concatenated).
func (ns *Namespace) ReadDir(name string) ([]vfs.Dir, error) {
	fd, err := ns.Open(name, vfs.OREAD)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return fd.ReadDir()
}
