package ns

import (
	"testing"

	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// PathNode resolves through the mount table on every operation; these
// tests drive it directly (exportfs drives it remotely).

func pathNodeNS(t *testing.T) (*Namespace, *ramfs.FS) {
	t.Helper()
	fs := ramfs.New("u")
	nsp := New("u", fs.Root())
	return nsp, fs
}

func TestPathNodeWalkStat(t *testing.T) {
	nsp, fs := pathNodeNS(t)
	fs.WriteFile("a/b", []byte("xy"), 0664)
	root := NodeAt(nsp, "/")
	if root.Path() != "/" {
		t.Errorf("root path %q", root.Path())
	}
	n, err := root.Walk("a")
	if err != nil {
		t.Fatal(err)
	}
	bn, err := n.Walk("b")
	if err != nil {
		t.Fatal(err)
	}
	d, err := bn.Stat()
	if err != nil || d.Name != "b" || d.Length != 2 {
		t.Errorf("stat %+v, %v", d, err)
	}
	if _, err := root.Walk("zz"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("missing walk = %v", err)
	}
}

func TestPathNodeFollowsMounts(t *testing.T) {
	nsp, _ := pathNodeNS(t)
	dev := ramfs.New("u")
	dev.WriteFile("inside", []byte("dev"), 0664)
	nsp.MountNode(dev.Root(), "/mnt", MREPL)
	root := NodeAt(nsp, "/")
	mn, err := root.Walk("mnt")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := mn.Walk("inside")
	if err != nil {
		t.Fatal(err)
	}
	h, err := fn.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 8)
	n, _ := h.Read(buf, 0)
	if string(buf[:n]) != "dev" {
		t.Errorf("mounted read %q", buf[:n])
	}
}

func TestPathNodeOpenUnionDir(t *testing.T) {
	nsp, fs := pathNodeNS(t)
	fs.WriteFile("u/local", nil, 0664)
	other := ramfs.New("u")
	other.WriteFile("remote", nil, 0664)
	nsp.MountNode(other.Root(), "/u", MAFTER)
	un := NodeAt(nsp, "/u")
	h, err := un.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ents, err := h.(vfs.DirReader).ReadDir()
	if err != nil || len(ents) != 2 {
		t.Errorf("union entries %v, %v", ents, err)
	}
}

func TestPathNodeCreateRemoveWstat(t *testing.T) {
	nsp, fs := pathNodeNS(t)
	fs.MkdirAll("d", 0775)
	dn := NodeAt(nsp, "/d")
	nn, h, err := dn.Create("f", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("by node"), 0)
	h.Close()
	if b, _ := fs.ReadFile("d/f"); string(b) != "by node" {
		t.Errorf("created %q", b)
	}
	if err := nn.(vfs.Wstater).Wstat(vfs.Dir{Name: "g"}); err != nil {
		t.Fatal(err)
	}
	gn := NodeAt(nsp, "/d/g")
	if err := gn.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("d/g"); err == nil {
		t.Error("remove did not land")
	}
}

// TestPathNodeHandleReadsAtOffsets: the handle a PathNode opens is the
// resolved node's own, offset-addressed for reads and writes.
func TestPathNodeHandleReadsAtOffsets(t *testing.T) {
	nsp, fs := pathNodeNS(t)
	fs.WriteFile("f", []byte("0123456789"), 0664)
	n := NodeAt(nsp, "/f")
	h, err := n.Open(vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 4)
	rn, err := h.Read(buf, 6)
	if err != nil || string(buf[:rn]) != "6789" {
		t.Errorf("offset read %q, %v", buf[:rn], err)
	}
	if _, err := h.Write([]byte("AB"), 2); err != nil {
		t.Fatal(err)
	}
	b, _ := fs.ReadFile("f")
	if string(b) != "01AB456789" {
		t.Errorf("offset write result %q", b)
	}
}

func TestNamespaceOpenCreateErrors(t *testing.T) {
	nsp, fs := pathNodeNS(t)
	fs.WriteFile("plain", nil, 0664)
	// Create under a file fails.
	if _, err := nsp.Create("/plain/child", 0664, vfs.OWRITE); err == nil {
		t.Error("create under plain file succeeded")
	}
	// Create at the root path fails.
	if _, err := nsp.Create("/", 0664, vfs.OWRITE); err == nil {
		t.Error("create of root succeeded")
	}
	// Remove/wstat on nodes lacking the interface.
	if err := nsp.Remove("/nothing"); err == nil {
		t.Error("remove of missing path succeeded")
	}
}

// TestOpenAfterCreate: a file Create made opens for writing, and what
// was written through the creating descriptor reads back.
func TestOpenAfterCreate(t *testing.T) {
	nsp, _ := pathNodeNS(t)
	if _, err := nsp.Open("/made", vfs.OWRITE); err == nil {
		t.Fatal("opened a file before it was made")
	}
	fd, err := nsp.Create("/made", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("1")
	fd.Close()
	fd, err = nsp.Open("/made", vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.Close()
	if b, err := nsp.ReadFile("/made"); err != nil || string(b) != "1" {
		t.Errorf("read back %q, %v", b, err)
	}
}
