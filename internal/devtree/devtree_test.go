package devtree

import (
	"strings"
	"testing"

	"repro/internal/vfs"
)

func TestMkDirMkFile(t *testing.T) {
	d := MkDir("net", "bootes", 0555)
	if !d.IsDir() || d.Mode != vfs.DMDIR|0555 || d.Qid.Type != vfs.QTDIR {
		t.Errorf("MkDir %+v", d)
	}
	f := MkFile("ctl", "bootes", 0666)
	if f.IsDir() || f.Uid != "bootes" || f.Qid.Type != vfs.QTFILE {
		t.Errorf("MkFile %+v", f)
	}
	if d.Qid.Path == f.Qid.Path {
		t.Error("qid paths collide")
	}
}

func TestStaticDir(t *testing.T) {
	ctl := &FileNode{Entry: MkFile("ctl", "u", 0666)}
	data := &FileNode{Entry: MkFile("data", "u", 0666)}
	dir := StaticDir(MkDir("1", "u", 0555),
		map[string]vfs.Node{"ctl": ctl, "data": data}, []string{"ctl", "data"})

	// Walk.
	n, err := dir.Walk("ctl")
	if err != nil || n != vfs.Node(ctl) {
		t.Errorf("walk ctl: %v, %v", n, err)
	}
	if _, err := dir.Walk("missing"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("missing walk = %v", err)
	}
	// List preserves order.
	h, err := dir.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	ents, _ := h.(vfs.DirReader).ReadDir()
	if len(ents) != 2 || ents[0].Name != "ctl" || ents[1].Name != "data" {
		t.Errorf("entries %+v", ents)
	}
	// Raw directory read marshals records.
	buf := make([]byte, 4*vfs.DirRecLen)
	rn, err := h.Read(buf, 0)
	if err != nil || rn != 2*vfs.DirRecLen {
		t.Errorf("raw read %d, %v", rn, err)
	}
	// Writes and write-opens refused.
	if _, err := h.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrIsDir) {
		t.Errorf("dir write = %v", err)
	}
	if _, err := dir.Open(vfs.OWRITE); !vfs.SameError(err, vfs.ErrIsDir) {
		t.Errorf("dir write-open = %v", err)
	}
	h.Close()
}

func TestFileNodeBasics(t *testing.T) {
	n := &FileNode{Entry: MkFile("f", "u", 0666)}
	if _, err := n.Walk("x"); !vfs.SameError(err, vfs.ErrNotDir) {
		t.Errorf("file walk = %v", err)
	}
	// No OpenFn: refused.
	if _, err := n.Open(vfs.OREAD); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("open without OpenFn = %v", err)
	}
	// StatFn overrides.
	n.StatFn = func(d vfs.Dir) (vfs.Dir, error) {
		d.Length = 42
		return d, nil
	}
	d, _ := n.Stat()
	if d.Length != 42 {
		t.Errorf("StatFn length %d", d.Length)
	}
}

func TestTextFileSnapshot(t *testing.T) {
	calls := 0
	f := TextFile(MkFile("status", "u", 0444), func() (string, error) {
		calls++
		return "state one\n", nil
	})
	h, err := f.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 5)
	n, _ := h.Read(buf, 0)
	if string(buf[:n]) != "state" {
		t.Errorf("first chunk %q", buf[:n])
	}
	// Continuation read at an offset uses the same snapshot.
	n, _ = h.Read(buf, 5)
	if string(buf[:n]) != " one\n" {
		t.Errorf("second chunk %q", buf[:n])
	}
	if calls != 1 {
		t.Errorf("generator ran %d times for one paging sequence", calls)
	}
	// A fresh read from 0 regenerates.
	h.Read(buf, 0)
	if calls != 2 {
		t.Errorf("generator ran %d times after rewind", calls)
	}
	// Writes refused.
	if _, err := h.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("text write = %v", err)
	}
	// Write-open refused.
	if _, err := f.Open(vfs.OWRITE); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("text write-open = %v", err)
	}
}

func TestCtlHandle(t *testing.T) {
	var got []string
	closed := false
	h := &CtlHandle{
		Cmd: func(cmd string) error {
			got = append(got, cmd)
			if strings.HasPrefix(cmd, "bad") {
				return vfs.ErrBadCtl
			}
			return nil
		},
		Get:   func() (string, error) { return "7", nil },
		OnEnd: func() { closed = true },
	}
	// Trailing newline stripped (echo compatibility).
	if _, err := h.Write([]byte("connect 2048\n"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("bad cmd"), 0); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("bad ctl = %v", err)
	}
	if len(got) != 2 || got[0] != "connect 2048" {
		t.Errorf("commands %v", got)
	}
	buf := make([]byte, 4)
	n, _ := h.Read(buf, 0)
	if string(buf[:n]) != "7" {
		t.Errorf("ctl read %q", buf[:n])
	}
	h.Close()
	if !closed {
		t.Error("OnEnd not called")
	}
}

// TestQueryFile: one line per read, a short buffer resumes mid-line, a
// new query drops what was left of the old answer, and a failed query
// leaves nothing to read.
func TestQueryFile(t *testing.T) {
	answers := map[string][]string{
		"two":   {"first line", "second"},
		"other": {"third"},
	}
	h, err := QueryFile(MkFile("q", "glenda", 0666), func(req string) ([]string, error) {
		lines, ok := answers[req]
		if !ok {
			return []string{"not to be served"}, vfs.ErrNotExist
		}
		return lines, nil
	}).Open(vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	read := func(n int) string {
		t.Helper()
		buf := make([]byte, n)
		n, err := h.Read(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}
	if n := read(64); n != "" {
		t.Errorf("read before any query = %q", n)
	}
	if n, err := h.Write([]byte("two"), 0); n != 3 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	for _, want := range []string{"first ", "line\n", "second", "\n", ""} {
		if got := read(6); got != want {
			t.Errorf("6-byte read = %q, want %q", got, want)
		}
	}
	if answers["two"][0] != "first line" {
		t.Error("serving the answer wrote to the query's lines")
	}
	// Abandon an answer mid-line.
	h.Write([]byte("two"), 0)
	read(3)
	h.Write([]byte("other"), 0)
	if got := read(64); got != "third\n" {
		t.Errorf("after a new query read %q, want the new answer from its start", got)
	}
	h.Write([]byte("two"), 0)
	if _, err := h.Write([]byte("unknown"), 0); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("failed query = %v", err)
	}
	if got := read(64); got != "" {
		t.Errorf("read after a failed query = %q", got)
	}
}

func TestCtlHandleNilHooks(t *testing.T) {
	h := &CtlHandle{}
	if _, err := h.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("write without Cmd = %v", err)
	}
	if n, err := h.Read(make([]byte, 4), 0); n != 0 || err != nil {
		t.Errorf("read without Get = %d, %v", n, err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("close without OnEnd = %v", err)
	}
}

func TestReadAtString(t *testing.T) {
	buf := make([]byte, 4)
	n, err := ReadAtString(buf, 0, "hello")
	if err != nil || string(buf[:n]) != "hell" {
		t.Errorf("ReadAtString = %q, %v", buf[:n], err)
	}
	n, _ = ReadAtString(buf, 4, "hello")
	if string(buf[:n]) != "o" {
		t.Errorf("offset read %q", buf[:n])
	}
	n, _ = ReadAtString(buf, 99, "hello")
	if n != 0 {
		t.Errorf("past-end read %d", n)
	}
}

func TestDirNodeNilHooks(t *testing.T) {
	d := &DirNode{Entry: MkDir("x", "u", 0555)}
	if _, err := d.Walk("a"); !vfs.SameError(err, vfs.ErrNotExist) {
		t.Errorf("walk without Lookup = %v", err)
	}
	h, err := d.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := h.(vfs.DirReader).ReadDir()
	if err != nil || ents != nil {
		t.Errorf("list without List = %v, %v", ents, err)
	}
}
