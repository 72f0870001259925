package ramfs

import (
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/vfs"
)

func TestAttachSpec(t *testing.T) {
	fs := New("bootes")
	if _, err := fs.Attach(""); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Attach("weird"); !vfs.SameError(err, vfs.ErrBadSpec) {
		t.Errorf("bad spec error = %v", err)
	}
	if fs.Name() != "ram" {
		t.Errorf("Name = %q", fs.Name())
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := New("bootes")
	if err := fs.WriteFile("lib/ndb/local", []byte("sys=helix\n"), 0664); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile("lib/ndb/local")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "sys=helix\n" {
		t.Errorf("contents %q", b)
	}
	// Overwrite truncates.
	if err := fs.WriteFile("lib/ndb/local", []byte("x"), 0664); err != nil {
		t.Fatal(err)
	}
	b, _ = fs.ReadFile("lib/ndb/local")
	if string(b) != "x" {
		t.Errorf("after overwrite %q", b)
	}
}

func TestMkdirAllIdempotent(t *testing.T) {
	fs := New("u")
	if err := fs.MkdirAll("a/b/c", 0775); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("a/b/c", 0775); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("a/b/c/f", []byte("hi"), 0664); err != nil {
		t.Fatal(err)
	}
	// A file in the way fails.
	if err := fs.MkdirAll("a/b/c/f/d", 0775); !vfs.SameError(err, vfs.ErrNotDir) {
		t.Errorf("mkdir through file error = %v", err)
	}
}

func TestWalkAndStat(t *testing.T) {
	fs := New("u")
	fs.WriteFile("dir/file", []byte("abc"), 0664)
	root := fs.Root()
	n, err := root.Walk("dir")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := n.Stat()
	if !d.IsDir() || d.Name != "dir" {
		t.Errorf("dir stat %+v", d)
	}
	f, err := n.Walk("file")
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := f.Stat()
	if fd.Length != 3 || fd.IsDir() {
		t.Errorf("file stat %+v", fd)
	}
	if _, err := n.Walk("missing"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("missing walk error = %v", err)
	}
	if _, err := f.Walk("x"); !vfs.SameError(err, vfs.ErrNotDir) {
		t.Errorf("walk through file error = %v", err)
	}
}

func TestDotDotWalk(t *testing.T) {
	fs := New("u")
	fs.MkdirAll("a/b", 0775)
	root := fs.Root()
	a, _ := root.Walk("a")
	b, _ := a.Walk("b")
	up, err := b.Walk("..")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := up.Stat()
	if d.Name != "a" {
		t.Errorf(".. from a/b gave %q", d.Name)
	}
	// .. from root stays at root.
	r2, err := root.Walk("..")
	if err != nil {
		t.Fatal(err)
	}
	d, _ = r2.Stat()
	if d.Name != "/" {
		t.Errorf(".. from root gave %q", d.Name)
	}
}

func TestOpenReadWrite(t *testing.T) {
	fs := New("u")
	fs.WriteFile("f", []byte("hello"), 0664)
	n, _ := fs.Root().Walk("f")
	h, err := n.Open(vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 10)
	rn, err := h.Read(buf, 0)
	if err != nil || string(buf[:rn]) != "hello" {
		t.Fatalf("read %q, %v", buf[:rn], err)
	}
	// Offset write extends with zero fill.
	if _, err := h.Write([]byte("X"), 7); err != nil {
		t.Fatal(err)
	}
	rn, _ = h.Read(buf, 0)
	if string(buf[:rn]) != "hello\x00\x00X" {
		t.Errorf("after sparse write: %q", buf[:rn])
	}
	// Read past EOF returns 0.
	rn, err = h.Read(buf, 100)
	if rn != 0 || err != nil {
		t.Errorf("past-EOF read = %d, %v", rn, err)
	}
}

func TestOpenModeEnforcement(t *testing.T) {
	fs := New("u")
	fs.WriteFile("f", []byte("x"), 0664)
	n, _ := fs.Root().Walk("f")
	h, _ := n.Open(vfs.OREAD)
	if _, err := h.Write([]byte("y"), 0); !vfs.SameError(err, vfs.ErrBadUseFd) {
		t.Errorf("write on OREAD = %v", err)
	}
	h.Close()
	h, _ = n.Open(vfs.OWRITE)
	if _, err := h.Read(make([]byte, 1), 0); !vfs.SameError(err, vfs.ErrBadUseFd) {
		t.Errorf("read on OWRITE = %v", err)
	}
	h.Close()
}

func TestTruncateOnOpen(t *testing.T) {
	fs := New("u")
	fs.WriteFile("f", []byte("hello"), 0664)
	n, _ := fs.Root().Walk("f")
	h, err := n.Open(vfs.OWRITE | vfs.OTRUNC)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	b, _ := fs.ReadFile("f")
	if len(b) != 0 {
		t.Errorf("after OTRUNC: %q", b)
	}
}

func TestCreateAndRemove(t *testing.T) {
	fs := New("u")
	root := fs.Root().(node)
	_, h, err := root.Create("new", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("data"), 0)
	h.Close()
	b, _ := fs.ReadFile("new")
	if string(b) != "data" {
		t.Errorf("created file contents %q", b)
	}
	// Duplicate create fails.
	if _, _, err := root.Create("new", 0664, vfs.OWRITE); !vfs.SameError(err, vfs.ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	// Bad names fail.
	for _, bad := range []string{"", ".", ".."} {
		if _, _, err := root.Create(bad, 0664, vfs.OWRITE); err == nil {
			t.Errorf("create %q succeeded", bad)
		}
	}
	n, _ := fs.Root().Walk("new")
	if err := n.(vfs.Remover).Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("new"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("after remove: %v", err)
	}
}

func TestCreateDirectory(t *testing.T) {
	fs := New("u")
	root := fs.Root().(node)
	dn, _, err := root.Create("sub", vfs.DMDIR|0775, vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := dn.Stat()
	if !d.IsDir() {
		t.Fatal("created dir is not a dir")
	}
	// Non-empty directory cannot be removed.
	if _, _, err := dn.(node).Create("f", 0664, vfs.OWRITE); err != nil {
		t.Fatal(err)
	}
	if err := dn.(vfs.Remover).Remove(); !vfs.SameError(err, vfs.ErrInUse) {
		t.Errorf("remove non-empty dir = %v", err)
	}
}

func TestRemoveRootForbidden(t *testing.T) {
	fs := New("u")
	if err := fs.Root().(vfs.Remover).Remove(); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("remove root = %v", err)
	}
}

func TestAppendOnly(t *testing.T) {
	fs := New("u")
	fs.WriteFile("log", nil, vfs.DMAPPEND|0664)
	// Mark the mode properly (WriteFile strips nothing, but ensure).
	n, _ := fs.Root().Walk("log")
	n.(vfs.Wstater).Wstat(vfs.Dir{Mode: vfs.DMAPPEND | 0664})
	h, err := n.Open(vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("a"), 0)
	h.Write([]byte("b"), 0) // offset ignored for append-only
	h.Close()
	b, _ := fs.ReadFile("log")
	if string(b) != "ab" {
		t.Errorf("append-only contents %q", b)
	}
}

func TestExclusiveUse(t *testing.T) {
	fs := New("u")
	fs.WriteFile("x", nil, 0664)
	n, _ := fs.Root().Walk("x")
	n.(vfs.Wstater).Wstat(vfs.Dir{Mode: vfs.DMEXCL | 0664})
	h1, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(vfs.OREAD); !vfs.SameError(err, vfs.ErrInUse) {
		t.Errorf("second open of DMEXCL = %v", err)
	}
	h1.Close()
	h2, err := n.Open(vfs.OREAD)
	if err != nil {
		t.Errorf("open after close: %v", err)
	}
	if h2 != nil {
		h2.Close()
	}
}

func TestORCLOSE(t *testing.T) {
	fs := New("u")
	root := fs.Root().(node)
	_, h, err := root.Create("tmp", 0664, vfs.OWRITE|vfs.ORCLOSE)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := fs.ReadFile("tmp"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("ORCLOSE file survived close: %v", err)
	}
}

func TestWstatRename(t *testing.T) {
	fs := New("u")
	fs.WriteFile("old", []byte("v"), 0664)
	n, _ := fs.Root().Walk("old")
	if err := n.(vfs.Wstater).Wstat(vfs.Dir{Name: "new"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("new"); err != nil {
		t.Errorf("renamed file missing: %v", err)
	}
	if _, err := fs.ReadFile("old"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Error("old name still present")
	}
	// Rename onto an existing name fails.
	fs.WriteFile("other", nil, 0664)
	n, _ = fs.Root().Walk("new")
	if err := n.(vfs.Wstater).Wstat(vfs.Dir{Name: "other"}); !vfs.SameError(err, vfs.ErrExists) {
		t.Errorf("rename onto existing = %v", err)
	}
}

func TestDirectoryRead(t *testing.T) {
	fs := New("u")
	fs.WriteFile("b", nil, 0664)
	fs.WriteFile("a", nil, 0664)
	h, err := fs.Root().Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ents, err := h.(vfs.DirReader).ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	// Creation order is preserved.
	if len(ents) != 2 || ents[0].Name != "b" || ents[1].Name != "a" {
		t.Errorf("entries %+v", ents)
	}
	// Raw read yields marshaled records.
	buf := make([]byte, 4*vfs.DirRecLen)
	rn, err := h.Read(buf, 0)
	if err != nil || rn != 2*vfs.DirRecLen {
		t.Fatalf("raw dir read = %d, %v", rn, err)
	}
	d, _ := vfs.UnmarshalDir(buf)
	if d.Name != "b" {
		t.Errorf("first marshaled entry %q", d.Name)
	}
	// Directories refuse writes and write-opens.
	if _, err := h.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrIsDir) {
		t.Errorf("dir write = %v", err)
	}
	if _, err := fs.Root().Open(vfs.OWRITE); !vfs.SameError(err, vfs.ErrIsDir) {
		t.Errorf("dir open for write = %v", err)
	}
}

func TestQidVersionBumps(t *testing.T) {
	fs := New("u")
	fs.WriteFile("f", []byte("1"), 0664)
	n, _ := fs.Root().Walk("f")
	d1, _ := n.Stat()
	h, _ := n.Open(vfs.OWRITE)
	h.Write([]byte("2"), 0)
	h.Close()
	d2, _ := n.Stat()
	if d2.Qid.Vers <= d1.Qid.Vers {
		t.Errorf("qid version did not advance: %d -> %d", d1.Qid.Vers, d2.Qid.Vers)
	}
	if d2.Qid.Path != d1.Qid.Path {
		t.Error("qid path changed on write")
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := New("u")
	fs.WriteFile("f", nil, 0664)
	n, _ := fs.Root().Walk("f")
	done := make(chan bool)
	for i := range 8 {
		go func(i int) {
			h, err := n.Open(vfs.OWRITE)
			if err == nil {
				for j := range 100 {
					h.Write([]byte{byte(i)}, int64(j))
				}
				h.Close()
			}
			done <- true
		}(i)
	}
	for range 8 {
		<-done
	}
	b, _ := fs.ReadFile("f")
	if len(b) != 100 {
		t.Errorf("file length %d after concurrent writes", len(b))
	}
}

// TestNewTimedStampsFromItsClock: a timed file system stamps what it
// makes and writes with its clock's time, not the host's, and still
// draws its qids from the process-wide counter, so two of them in one
// name space never share a qid path.
func TestNewTimedStampsFromItsClock(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		a, b := NewTimed("a", v), NewTimed("b", v)
		v.Sleep(90 * time.Second)
		for _, fs := range []*FS{a, b} {
			if err := fs.WriteFile("f", []byte("x"), 0664); err != nil {
				t.Error(err)
				return
			}
		}
		v.Sleep(90 * time.Second)
		if err := a.WriteFile("f", []byte("xy"), 0664); err != nil {
			t.Error(err)
			return
		}
		stat := func(fs *FS, name string) vfs.Dir {
			n := fs.Root()
			if name != "" {
				n, _ = n.Walk(name)
			}
			d, _ := n.Stat()
			return d
		}
		sa, ra := stat(a, "f"), stat(a, "")
		epoch := uint32(vclock.Epoch.Unix())
		if sa.Atime != epoch+90 || sa.Mtime != epoch+180 || ra.Mtime != epoch {
			t.Errorf("stamps atime T+%ds mtime T+%ds, root mtime T+%ds; want 90, 180, 0", sa.Atime-epoch, sa.Mtime-epoch, ra.Mtime-epoch)
		}
		if sa.Qid.Path == stat(b, "f").Qid.Path || ra.Qid.Path == stat(b, "").Qid.Path {
			t.Errorf("two timed file systems share qid path %d or %d", sa.Qid.Path, ra.Qid.Path)
		}
	})
}
