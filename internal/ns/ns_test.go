package ns

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/devtree"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

func newNS(t *testing.T) (*Namespace, *ramfs.FS) {
	t.Helper()
	fs := ramfs.New("glenda")
	return New("glenda", fs.Root()), fs
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"":              "/",
		"/":             "/",
		"net":           "/net",
		"/net/":         "/net",
		"/net/../dev":   "/dev",
		"/a//b/./c":     "/a/b/c",
		"/../..":        "/",
		"/net/tcp/0/..": "/net/tcp",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOpenReadWriteThroughNS(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("dir/file", []byte("hello world"), 0664)
	fd, err := nsp.Open("/dir/file", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 5)
	if _, err := io.ReadFull(fd, b); err != nil || string(b) != "hello" {
		t.Fatalf("read %q, %v", b, err)
	}
	// Sequential reads advance the offset.
	if _, err := io.ReadFull(fd, b); err != nil || string(b) != " worl" {
		t.Fatalf("second read %q, %v", b, err)
	}
	fd.Close()
	if fd.Name() != "/dir/file" {
		t.Errorf("fd name %q", fd.Name())
	}
}

func TestReadAtEOF(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("x"), 0664)
	fd, _ := nsp.Open("/f", vfs.OREAD)
	defer fd.Close()
	b := make([]byte, 4)
	n, _ := fd.Read(b)
	if n != 1 {
		t.Fatalf("first read %d", n)
	}
	if _, err := fd.Read(b); err != io.EOF {
		t.Errorf("EOF read error = %v", err)
	}
}

// TestFDOffset: a Read moves the descriptor's offset, a ReadAt reads
// where it is told and leaves the offset alone.
func TestFDOffset(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("0123456789"), 0664)
	fd, _ := nsp.Open("/f", vfs.OREAD)
	defer fd.Close()
	b := make([]byte, 2)
	if n, err := fd.ReadAt(b, 4); n != 2 || err != nil || string(b) != "45" {
		t.Errorf("ReadAt 4: %q, %d, %v", b, n, err)
	}
	for _, want := range []string{"01", "23"} {
		if n, err := fd.Read(b); n != 2 || err != nil || string(b) != want {
			t.Errorf("Read: %q, %d, %v; want %q", b, n, err, want)
		}
	}
	if n, err := fd.ReadAt(b, 8); n != 2 || err != nil || string(b) != "89" {
		t.Errorf("ReadAt 8: %q, %d, %v", b, n, err)
	}
	if n, err := fd.Read(b); n != 2 || err != nil || string(b) != "45" {
		t.Errorf("Read after ReadAt: %q, %d, %v; want \"45\"", b, n, err)
	}
}

func TestCreateRemoveThroughNS(t *testing.T) {
	nsp, _ := newNS(t)
	fd, err := nsp.Create("/newfile", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("data")
	fd.Close()
	b, err := nsp.ReadFile("/newfile")
	if err != nil || string(b) != "data" {
		t.Fatalf("read created file: %q, %v", b, err)
	}
	if err := nsp.Remove("/newfile"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Open("/newfile", vfs.OREAD); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("open after remove = %v", err)
	}
}

func TestWriteFileHelper(t *testing.T) {
	nsp, _ := newNS(t)
	if err := nsp.WriteFile("/f", []byte("one"), 0664); err != nil {
		t.Fatal(err)
	}
	if err := nsp.WriteFile("/f", []byte("2"), 0664); err != nil {
		t.Fatal(err)
	}
	b, _ := nsp.ReadFile("/f")
	if string(b) != "2" {
		t.Errorf("after rewrite %q", b)
	}
}

// TestOpenFDsBook: Open and Create each put one FD on the book, its
// first Close takes it off, and a second Close or a failed Open moves
// nothing.
func TestOpenFDsBook(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("x"), 0664)
	base := OpenFDs()
	book := func(when string, want int64) {
		t.Helper()
		if got := OpenFDs() - base; got != want {
			t.Errorf("%s: %d FDs open, want %d", when, got, want)
		}
	}
	opened, err := nsp.Open("/f", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	book("after Open", 1)
	created, err := nsp.Create("/g", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	book("after Create", 2)
	if _, err := nsp.Open("/absent", vfs.OREAD); err == nil {
		t.Fatal("Open of an absent file succeeded")
	}
	book("after a failed Open", 2)
	opened.Close()
	book("after Close", 1)
	opened.Close()
	book("after a second Close", 1)
	created.Close()
	book("after both are closed", 0)
}

// sizedFile stats as length bytes long whatever it holds, as a file
// that grew after its stat does and as a device file (length 0) does,
// and records the length of every read.
type sizedFile struct {
	length int64
	data   []byte
	reads  []int
}

func (f *sizedFile) Stat() (vfs.Dir, error) {
	return vfs.Dir{Name: "f", Mode: 0444, Length: f.length}, nil
}
func (f *sizedFile) Walk(string) (vfs.Node, error) { return nil, vfs.ErrNotDir }
func (f *sizedFile) Open(int) (vfs.Handle, error)  { return f, nil }
func (f *sizedFile) Write([]byte, int64) (int, error) {
	return 0, vfs.ErrPerm
}
func (f *sizedFile) Close() error { return nil }

func (f *sizedFile) Read(p []byte, off int64) (int, error) {
	f.reads = append(f.reads, len(p))
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}

// TestReadFileSizedFromStat: ReadFile reads whole whatever the stat
// said — the length, more than it (a file that grew), or nothing (a
// device file) — and every read it makes is 8 KiB long, so nothing on
// a wire below it changes with the sizing.
func TestReadFileSizedFromStat(t *testing.T) {
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name   string
		length int64
		reads  int
	}{
		{"exact", 20000, 4},
		{"grown", 100, 4},
		{"device", 0, 4},
		{"chunk", 8192, 2},
	} {
		f := &sizedFile{length: tc.length, data: data}
		if tc.name == "chunk" {
			f.data = data[:8192]
		}
		nsp, _ := newNS(t)
		if err := nsp.MountNode(f, "/f", MREPL); err != nil {
			t.Fatal(err)
		}
		b, err := nsp.ReadFile("/f")
		if err != nil || string(b) != string(f.data) {
			t.Errorf("%s: read %d bytes, %v; want %d", tc.name, len(b), err, len(f.data))
		}
		if len(f.reads) != tc.reads {
			t.Errorf("%s: %d reads, want %d", tc.name, len(f.reads), tc.reads)
		}
		for _, n := range f.reads {
			if n != readChunk {
				t.Errorf("%s: reads of %v bytes, want every one %d", tc.name, f.reads, readChunk)
				break
			}
		}
	}
}

// failingFile is a sizedFile whose reads past its first chunk fail,
// and whose end of file, when it reaches one, is io.EOF.
type failingFile struct {
	sizedFile
	err error
}

func (f *failingFile) Open(int) (vfs.Handle, error) { return f, nil }

func (f *failingFile) Read(p []byte, off int64) (int, error) {
	n, _ := f.sizedFile.Read(p, off)
	switch {
	case off >= int64(len(f.data)):
		return 0, io.EOF
	case off > 0:
		return 0, f.err
	}
	return n, nil
}

// TestReadFileSurfacesAFailedRead: a read that fails ends ReadFile with
// what it had read and the read's error, not as a short file; io.EOF
// at the end of the file is the end, not a failure.
func TestReadFileSurfacesAFailedRead(t *testing.T) {
	data := make([]byte, 20000)
	for _, tc := range []struct {
		name string
		data []byte
		want int
		err  error
	}{
		{"fails", data, readChunk, vfs.ErrHungup},
		{"eof", data[:100], 100, nil},
	} {
		f := &failingFile{sizedFile{length: 100, data: tc.data}, vfs.ErrHungup}
		nsp, _ := newNS(t)
		if err := nsp.MountNode(f, "/f", MREPL); err != nil {
			t.Fatal(err)
		}
		if b, err := nsp.ReadFile("/f"); err != tc.err || len(b) != tc.want {
			t.Errorf("%s: read %d bytes, %v; want %d and %v", tc.name, len(b), err, tc.want, tc.err)
		}
	}
}

func TestMountReplacesTree(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	other := ramfs.New("glenda")
	other.WriteFile("tcp/clone", nil, 0666)
	if err := nsp.MountNode(other.Root(), "/net", MREPL); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Stat("/net/tcp/clone"); err != nil {
		t.Errorf("mounted file missing: %v", err)
	}
}

func TestMountOnNonexistentPoint(t *testing.T) {
	// Mounting on a name that has no underlying file still works:
	// the mount table supplies the tree (used for kernel devices).
	nsp, _ := newNS(t)
	dev := ramfs.New("glenda")
	dev.WriteFile("inside", []byte("ok"), 0664)
	if err := nsp.MountNode(dev.Root(), "/purely/virtual", MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/purely/virtual/inside")
	if err != nil || string(b) != "ok" {
		t.Errorf("virtual mount read: %q, %v", b, err)
	}
}

func TestUnionAfterPreservesDuplicatesAndPrecedence(t *testing.T) {
	// Reproduces the paper's §6.1 transcript: import -a musca /net
	// lists /net/cs and /net/dk twice, and local entries supersede
	// remote ones of the same name.
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	fs.WriteFile("net/cs", []byte("local-cs"), 0666)
	fs.WriteFile("net/dk", []byte("local-dk"), 0666)

	remote := ramfs.New("musca")
	remote.WriteFile("cs", []byte("remote-cs"), 0666)
	remote.WriteFile("dk", []byte("remote-dk"), 0666)
	remote.WriteFile("tcp", []byte("remote-tcp"), 0666)
	remote.WriteFile("il", []byte("remote-il"), 0666)

	localNet, err := nsp.Walk("/net")
	if err != nil {
		t.Fatal(err)
	}
	if err := nsp.MountNode(localNet, "/net", MREPL); err != nil {
		t.Fatal(err)
	}
	if err := nsp.MountNode(remote.Root(), "/net", MAFTER); err != nil {
		t.Fatal(err)
	}

	ents, err := nsp.ReadDir("/net")
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, e := range ents {
		count[e.Name]++
	}
	if count["cs"] != 2 || count["dk"] != 2 {
		t.Errorf("union listing counts %v, want cs and dk twice", count)
	}
	if count["tcp"] != 1 || count["il"] != 1 {
		t.Errorf("unique remote entries %v", count)
	}
	// Local supersedes remote on walk.
	b, err := nsp.ReadFile("/net/cs")
	if err != nil || string(b) != "local-cs" {
		t.Errorf("/net/cs = %q, %v (want local)", b, err)
	}
	// Unique remote entries are reachable.
	b, err = nsp.ReadFile("/net/tcp")
	if err != nil || string(b) != "remote-tcp" {
		t.Errorf("/net/tcp = %q, %v (want remote)", b, err)
	}
}

func TestUnionBefore(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("bin", 0775)
	fs.WriteFile("bin/tool", []byte("system"), 0775)
	mine := ramfs.New("glenda")
	mine.WriteFile("tool", []byte("mine"), 0775)
	local, _ := nsp.Walk("/bin")
	nsp.MountNode(local, "/bin", MREPL)
	nsp.MountNode(mine.Root(), "/bin", MBEFORE)
	b, err := nsp.ReadFile("/bin/tool")
	if err != nil || string(b) != "mine" {
		t.Errorf("MBEFORE precedence: %q, %v", b, err)
	}
}

func TestUnionCreateFlag(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("u", 0775)
	a := ramfs.New("glenda")
	b := ramfs.New("glenda")
	local, _ := nsp.Walk("/u")
	nsp.MountNode(local, "/u", MREPL)
	nsp.MountNode(a.Root(), "/u", MAFTER) // no MCREATE
	// With no MCREATE member, creation is refused.
	if _, err := nsp.Create("/u/f", 0664, vfs.OWRITE); !vfs.SameError(err, vfs.ErrNoCreate) {
		t.Errorf("create in non-MCREATE union = %v", err)
	}
	nsp.MountNode(b.Root(), "/u", MAFTER|MCREATE)
	fd, err := nsp.Create("/u/f", 0664, vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("x")
	fd.Close()
	if _, err := b.ReadFile("f"); err != nil {
		t.Errorf("creation did not land in MCREATE member: %v", err)
	}
	if _, err := a.ReadFile("f"); err == nil {
		t.Error("creation landed in non-MCREATE member")
	}
}

func TestBind(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("dev/eia1", []byte("uart"), 0666)
	if err := nsp.Bind("/dev", "/serial", MREPL); err != nil {
		t.Fatal(err)
	}
	b, err := nsp.ReadFile("/serial/eia1")
	if err != nil || string(b) != "uart" {
		t.Errorf("bound read %q, %v", b, err)
	}
	if err := nsp.Bind("/missing", "/x", MREPL); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("bind missing source = %v", err)
	}
}

func TestUnmount(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("mnt", 0775)
	other := ramfs.New("u")
	other.WriteFile("f", []byte("1"), 0664)
	nsp.MountNode(other.Root(), "/mnt", MREPL)
	if _, err := nsp.ReadFile("/mnt/f"); err != nil {
		t.Fatal(err)
	}
	if err := nsp.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.ReadFile("/mnt/f"); err == nil {
		t.Error("file visible after unmount")
	}
	if err := nsp.Unmount("/mnt"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("double unmount = %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("net", 0775)
	child := nsp.Clone()
	other := ramfs.New("u")
	other.WriteFile("f", []byte("child-only"), 0664)
	child.MountNode(other.Root(), "/net", MREPL)
	if _, err := child.ReadFile("/net/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.ReadFile("/net/f"); err == nil {
		t.Error("child mount leaked into parent name space")
	}
	if child.User() != "glenda" {
		t.Errorf("clone user %q", child.User())
	}
}

func TestMountUnderMount(t *testing.T) {
	nsp, _ := newNS(t)
	outer := ramfs.New("u")
	outer.MkdirAll("sub", 0775)
	inner := ramfs.New("u")
	inner.WriteFile("deep", []byte("d"), 0664)
	nsp.MountNode(outer.Root(), "/m", MREPL)
	nsp.MountNode(inner.Root(), "/m/sub", MREPL)
	b, err := nsp.ReadFile("/m/sub/deep")
	if err != nil || string(b) != "d" {
		t.Errorf("nested mount read %q, %v", b, err)
	}
}

func TestStatAndWstatThroughNS(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("f", []byte("abc"), 0664)
	d, err := nsp.Stat("/f")
	if err != nil || d.Length != 3 {
		t.Fatalf("stat %+v, %v", d, err)
	}
	if err := nsp.Wstat("/f", vfs.Dir{Name: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nsp.Stat("/g"); err != nil {
		t.Errorf("renamed via wstat missing: %v", err)
	}
}

func TestDirFDReadDirAndRawRead(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("d/one", nil, 0664)
	fs.WriteFile("d/two", nil, 0664)
	fd, err := nsp.Open("/d", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if !fd.IsDir() {
		t.Error("directory fd not marked as dir")
	}
	ents, err := fd.ReadDir()
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir %v, %v", ents, err)
	}
	buf := make([]byte, 4*vfs.DirRecLen)
	n, err := fd.Read(buf)
	if err != nil || n != 2*vfs.DirRecLen {
		t.Errorf("raw dir read = %d, %v", n, err)
	}
}

func TestDevtreeUnderNS(t *testing.T) {
	// A synthetic device mounts and reads like any file tree.
	ctlLog := ""
	ctl := &devtree.FileNode{
		Entry: devtree.MkFile("ctl", "net", 0666),
		OpenFn: func(mode int) (vfs.Handle, error) {
			return &devtree.CtlHandle{
				Cmd: func(cmd string) error { ctlLog = cmd; return nil },
				Get: func() (string, error) { return "7", nil },
			}, nil
		},
	}
	status := devtree.TextFile(devtree.MkFile("status", "net", 0444),
		func() (string, error) { return "Established", nil })
	dir := devtree.StaticDir(devtree.MkDir("x", "net", 0555),
		map[string]vfs.Node{"ctl": ctl, "status": status}, []string{"ctl", "status"})

	nsp, _ := newNS(t)
	nsp.MountNode(dir, "/net/x", MREPL)
	fd, err := nsp.Open("/net/x/ctl", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	fd.WriteString("b1200\n")
	if ctlLog != "b1200" {
		t.Errorf("ctl cmd %q", ctlLog)
	}
	b := make([]byte, 8)
	n, _ := fd.ReadAt(b, 0)
	if string(b[:n]) != "7" {
		t.Errorf("ctl read %q", b[:n])
	}
	fd.Close()
	b2, err := nsp.ReadFile("/net/x/status")
	if err != nil || string(b2) != "Established" {
		t.Errorf("status %q, %v", b2, err)
	}
	ents, _ := nsp.ReadDir("/net/x")
	if len(ents) != 2 || ents[0].Name != "ctl" {
		t.Errorf("device dir entries %+v", ents)
	}
}

// Property: Clean is idempotent, always absolute, and never emits "."
// or ".." components.
func TestCleanQuick(t *testing.T) {
	f := func(parts []string) bool {
		p := strings.Join(parts, "/")
		c := Clean(p)
		if c == "" || c[0] != '/' {
			return false
		}
		if Clean(c) != c {
			return false
		}
		for _, el := range strings.Split(c[1:], "/") {
			if el == "." || el == ".." {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// unionNames lists the directory at p, in union order.
func unionNames(t *testing.T, nsp *Namespace, p string) string {
	t.Helper()
	ents, err := nsp.ReadDir(p)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	return strings.Join(names, " ")
}

// A clone shares its parent's mount-table snapshot, so a bind on either
// side must build a fresh union rather than append into the slice the
// other still reads.
func TestBindAfterCloneLeavesCloneUnchanged(t *testing.T) {
	nsp, _ := newNS(t)
	tree := func(name string) vfs.Node {
		fs := ramfs.New("u")
		fs.WriteFile(name, nil, 0664)
		return fs.Root()
	}
	// Three mounts leave the union's backing array with room to spare,
	// which is where an in-place append would land.
	nsp.MountNode(tree("a"), "/u", MREPL)
	nsp.MountNode(tree("b"), "/u", MAFTER)
	nsp.MountNode(tree("c"), "/u", MAFTER)
	child := nsp.Clone()
	if got := unionNames(t, child, "/u"); got != "a b c" {
		t.Fatalf("clone lists %q", got)
	}
	nsp.MountNode(tree("x"), "/u", MAFTER)
	child.MountNode(tree("y"), "/u", MAFTER)
	if got := unionNames(t, nsp, "/u"); got != "a b c x" {
		t.Errorf("parent lists %q after the clone bound, want a b c x", got)
	}
	if got := unionNames(t, child, "/u"); got != "a b c y" {
		t.Errorf("clone lists %q, want a b c y", got)
	}
	nsp.MountNode(tree("w"), "/u", MBEFORE)
	nsp.Unmount("/u")
	if got := unionNames(t, child, "/u"); got != "a b c y" {
		t.Errorf("clone lists %q after the parent bound before and unmounted", got)
	}
}

func TestMountNodeRejectsBadOrder(t *testing.T) {
	nsp, fs := newNS(t)
	fs.MkdirAll("u", 0775)
	if err := nsp.MountNode(ramfs.New("u").Root(), "/u", MORDER); !vfs.SameError(err, vfs.ErrBadArg) {
		t.Errorf("MountNode with order 3 = %v", err)
	}
	if err := nsp.Unmount("/u"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("a refused mount left something at /u: Unmount = %v", err)
	}
}

// slowDir is a directory whose Walk takes simulated time, as a mounted
// server's does.
type slowDir struct {
	vfs.Node
	ck vclock.Clock
	d  time.Duration
}

func (s slowDir) Walk(name string) (vfs.Node, error) {
	s.ck.Sleep(s.d)
	return s.Node.Walk(name)
}

// A resolve parked in a server's Walk holds nothing a Bind needs: the
// Bind completes at once, and the resolve finishes on the table it
// started with.
func TestBindCompletesWhileResolveIsParkedInWalk(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("glenda", v)
		fs.WriteFile("srv/f", []byte("old"), 0664)
		fs.WriteFile("dev/eia1", []byte("uart"), 0664)
		nsp := New("glenda", fs.Root())
		srv, err := fs.Root().Walk("srv")
		if err != nil {
			t.Error(err)
			return
		}
		nsp.MountNode(slowDir{srv, v, time.Second}, "/srv", MREPL)

		start := v.Now()
		done := vclock.NewWaitGroup(v)
		done.Add(1)
		var walked time.Duration
		v.Go(func() {
			defer done.Done()
			b, err := nsp.ReadFile("/srv/f")
			if err != nil || string(b) != "old" {
				t.Errorf("read through the slow mount: %q, %v", b, err)
			}
			walked = v.Since(start)
		})
		v.Sleep(500 * time.Millisecond) // the resolver is parked in Walk
		other := ramfs.NewClock("glenda", v)
		other.WriteFile("f", []byte("new"), 0664)
		if err := nsp.MountNode(other.Root(), "/srv", MREPL); err != nil {
			t.Error(err)
		}
		if err := nsp.Bind("/dev", "/serial", MREPL); err != nil {
			t.Error(err)
		}
		if at := v.Since(start); at != 500*time.Millisecond {
			t.Errorf("the binds finished at T+%v, want T+500ms: they waited for the walk", at)
		}
		done.Wait()
		if walked != time.Second {
			t.Errorf("the parked resolve finished at T+%v, want T+1s", walked)
		}
		if b, err := nsp.ReadFile("/srv/f"); err != nil || string(b) != "new" {
			t.Errorf("read after the remount: %q, %v", b, err)
		}
	})
}

// rawDir is a directory as the mount driver relays one: its handle has
// no ReadDir, only raw reads of marshaled records.
type rawDir struct{ vfs.Node }

type rawHandle struct{ h vfs.Handle }

func (r rawDir) Open(mode int) (vfs.Handle, error) {
	h, err := r.Node.Open(mode)
	return rawHandle{h}, err
}
func (r rawHandle) Read(p []byte, off int64) (int, error)  { return r.h.Read(p, off) }
func (r rawHandle) Write(p []byte, off int64) (int, error) { return r.h.Write(p, off) }
func (r rawHandle) Close() error                           { return r.h.Close() }

// A remote directory lists by decoding the records its raw reads
// return, alone and as a member of a union.
func TestRemoteDirectoryListsFromRawRecords(t *testing.T) {
	nsp, fs := newNS(t)
	fs.WriteFile("n/local", nil, 0664)
	remote := ramfs.New("musca")
	for i := range 20 { // more than one 16-record read
		remote.WriteFile("r"+strings.Repeat("x", i), nil, 0664)
	}
	if err := nsp.MountNode(rawDir{remote.Root()}, "/r", MREPL); err != nil {
		t.Fatal(err)
	}
	if ents, err := nsp.ReadDir("/r"); err != nil || len(ents) != 20 {
		t.Errorf("remote listing: %d entries, %v", len(ents), err)
	}
	if err := nsp.MountNode(rawDir{remote.Root()}, "/n", MAFTER); err != nil {
		t.Fatal(err)
	}
	fd, err := nsp.Open("/n", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if ents, err := fd.ReadDir(); err != nil || len(ents) != 21 || ents[0].Name != "local" {
		t.Errorf("union listing: %d entries, %v", len(ents), err)
	}
	buf := make([]byte, 32*vfs.DirRecLen)
	if n, err := fd.Read(buf); err != nil || n != 21*vfs.DirRecLen {
		t.Errorf("raw union read = %d, %v", n, err)
	}
	if _, err := fd.Write([]byte("x")); err == nil {
		t.Error("write to a union directory succeeded")
	}
}

func TestMountDevice(t *testing.T) {
	nsp, _ := newNS(t)
	dev := ramfs.New("u")
	dev.WriteFile("f", []byte("dev"), 0664)
	if err := nsp.MountDevice(dev, "", "/dev", MREPL); err != nil {
		t.Fatal(err)
	}
	if b, err := nsp.ReadFile("/dev/f"); err != nil || string(b) != "dev" {
		t.Errorf("read through a mounted device: %q, %v", b, err)
	}
}
