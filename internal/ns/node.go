package ns

import (
	"repro/internal/vfs"
)

// PathNode is a vfs.Node that resolves every operation through a name
// space. It is what exportfs serves: walking a PathNode consults the
// exporting process's mount table at every level, so a remote client
// sees the exporter's composed view — mounts, unions, and all. This is
// the mechanism behind the paper's §6.1 gateway example, where
// importing /net from a machine brings over everything mounted there.
type PathNode struct {
	nsp  *Namespace
	path string
}

var (
	_ vfs.Node    = PathNode{}
	_ vfs.Creator = PathNode{}
	_ vfs.Remover = PathNode{}
	_ vfs.Wstater = PathNode{}
)

// NodeAt returns a namespace-resolving node for path.
func NodeAt(nsp *Namespace, path string) PathNode {
	return PathNode{nsp: nsp, path: Clean(path)}
}

// Path returns the canonical path the node resolves.
func (n PathNode) Path() string { return n.path }

// Stat implements vfs.Node.
func (n PathNode) Stat() (vfs.Dir, error) { return n.nsp.Stat(n.path) }

// child returns the canonical path of name below n. Joined under the
// root without a doubled slash, an ordinary name is already clean, so
// Clean has only "..", "." and the like to rewrite.
func (n PathNode) child(name string) string {
	if n.path == "/" {
		return Clean("/" + name)
	}
	return Clean(n.path + "/" + name)
}

// Walk implements vfs.Node, resolving through the mount table.
func (n PathNode) Walk(name string) (vfs.Node, error) {
	child := n.child(name)
	if _, err := n.nsp.Walk(child); err != nil {
		return nil, err
	}
	return PathNode{nsp: n.nsp, path: child}, nil
}

// Open implements vfs.Node; union directories open as their merged
// listing, exactly as a local process sees them. The handle is the
// resolved node's own, so what it declares (vfs.Stable, vfs.DirReader)
// reaches a cache or server above the PathNode unchanged.
func (n PathNode) Open(mode int) (vfs.Handle, error) {
	h, _, _, err := n.nsp.open(n.path, mode)
	return h, err
}

// Create implements vfs.Creator.
func (n PathNode) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	child := n.child(name)
	h, _, err := n.nsp.create(child, perm, mode)
	if err != nil {
		return nil, nil, err
	}
	return PathNode{nsp: n.nsp, path: child}, h, nil
}

// Remove implements vfs.Remover.
func (n PathNode) Remove() error { return n.nsp.Remove(n.path) }

// Wstat implements vfs.Wstater.
func (n PathNode) Wstat(d vfs.Dir) error { return n.nsp.Wstat(n.path, d) }
