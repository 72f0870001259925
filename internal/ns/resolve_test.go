package ns

import (
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vfs"
)

// A walk through the name space allocates nothing beyond the nodes it
// returns: resolve scans the canonical path in place, and a ramfs walk
// hands back a node without allocating. A PathNode walk (exportfs's
// per-level walk) pays for its child path and the boxed node, nothing
// more. check.sh runs this without the race detector (whose
// instrumentation allocates).
func TestAllocsResolve(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates; gated in check.sh without -race")
	}
	root := ramfs.New("u")
	root.MkdirAll("a/b", 0775)
	dev := ramfs.New("u")
	dev.WriteFile("c/f", []byte("four"), 0664)
	nsp := New("u", root.Root())
	if err := nsp.MountNode(dev.Root(), "/a/b", MREPL); err != nil {
		t.Fatal(err)
	}
	const name = "/a/b/c/f"
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := nsp.Walk(name); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Walk(%q) allocates %.1f objects, want 0", name, got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if d, err := nsp.Stat(name); err != nil || d.Length != 4 {
			t.Fatal(d, err)
		}
	}); got != 0 {
		t.Errorf("Stat(%q) allocates %.1f objects, want 0", name, got)
	}
	// Under the root the child path is joined without a doubled
	// slash, so Clean has nothing to rewrite there either.
	for _, w := range []struct{ dir, name string }{{"/", "a"}, {"/a/b/c", "f"}} {
		n := NodeAt(nsp, w.dir)
		if got := testing.AllocsPerRun(1000, func() {
			if _, err := n.Walk(w.name); err != nil {
				t.Fatal(err)
			}
		}); got > 2 {
			t.Errorf("PathNode(%q).Walk(%q) allocates %.1f objects, want at most 2 (the path and the node)", w.dir, w.name, got)
		}
	}
}

// oracleResolve is resolve as it was before it walked in place: split
// the canonical path, concatenate the walked prefix one element at a
// time, and hold every candidate list in a fresh slice. FuzzResolve
// holds the in-place walk to it.
func oracleResolve(ns *Namespace, name string) ([]entry, string, error) {
	cname := Clean(name)
	var elems []string
	if cname != "/" {
		elems = strings.Split(cname[1:], "/")
	}
	mnt := *ns.mnt.Load()
	cur, ok := mnt["/"]
	if !ok && ns.root != nil {
		cur = []entry{{node: ns.root}}
	}
	walked := ""
	var lastErr error
	for _, el := range elems {
		var next vfs.Node
		lastErr = vfs.ErrNotExist
		for _, c := range cur {
			n, err := c.node.Walk(el)
			if err == nil {
				next = n
				break
			}
			lastErr = err
		}
		walked = walked + "/" + el
		if es, ok := mnt[walked]; ok {
			cur = es
			continue
		}
		if next == nil {
			prefix := walked + "/"
			under := false
			for k := range mnt {
				under = under || strings.HasPrefix(k, prefix)
			}
			if under {
				cur = nil
				continue
			}
			return nil, "", lastErr
		}
		cur = []entry{{node: next}}
	}
	if len(cur) == 0 {
		return nil, "", vfs.ErrNotExist
	}
	return cur, cname, nil
}

// fuzzNS is a mount table with every shape resolve distinguishes: a
// union at the root, an MAFTER union point, a pure mount point below a
// name that exists nowhere, and an MCREATE member.
func fuzzNS(t testing.TB) *Namespace {
	root := ramfs.New("u")
	root.WriteFile("bin/ls", []byte("ls"), 0775)
	root.WriteFile("lib/ndb/local", []byte("sys=helix"), 0664)
	root.MkdirAll("tmp", 0777)
	top := ramfs.New("u")
	top.WriteFile("net/cs", nil, 0666)
	top.WriteFile("bin/rc", []byte("rc"), 0775)
	bin := ramfs.New("u")
	bin.WriteFile("cat", []byte("cat"), 0775)
	bin.WriteFile("ls", []byte("other ls"), 0775)
	remote := ramfs.New("u")
	remote.WriteFile("lib/ndb/local", []byte("sys=bootes"), 0664)
	tmp := ramfs.New("u")
	tmp.WriteFile("scratch/f", []byte("x"), 0664)

	nsp := New("u", root.Root())
	for _, m := range []struct {
		fs   *ramfs.FS
		old  string
		flag int
	}{
		{top, "/", MAFTER},
		{bin, "/bin", MAFTER},
		{remote, "/n/remote", MREPL},
		{tmp, "/tmp", MBEFORE | MCREATE},
	} {
		if err := nsp.MountNode(m.fs.Root(), m.old, m.flag); err != nil {
			t.Fatal(err)
		}
	}
	return nsp
}

// FuzzResolve holds the in-place walk to the split-and-concatenate
// oracle: for any name, the same first node, the same union (the mount
// table's own slice, at a mount point only), the same canonical path
// and the same error.
func FuzzResolve(f *testing.F) {
	for _, s := range []string{
		"", ".", "..", "/", "//", "/.", "/..", "bin/", "/bin/", "/bin/ls",
		"/bin/cat", "/bin/rc", "bin//cat", "/net/cs", "/net/cs/x",
		"/n", "/n/", "/n/remote", "/n/remote/", "/n/remote/lib/ndb/local",
		"/n/remote/nope", "/n/other", "/n/remote/../remote/lib",
		"/tmp", "/tmp/scratch/f", "/tmp/scratch/f/g", "/lib/ndb/local",
		"/lib/./ndb/../ndb/local", "nope", "/nope/x", "/../../bin",
	} {
		f.Add(s)
	}
	nsp := fuzzNS(f)
	f.Fuzz(func(t *testing.T, name string) {
		first, union, cname, err := nsp.resolve(name)
		want, wname, werr := oracleResolve(nsp, name)
		if (err == nil) != (werr == nil) || err != nil && !vfs.SameError(err, werr) {
			t.Fatalf("resolve(%q) error %v, oracle %v", name, err, werr)
		}
		if err != nil {
			return
		}
		if cname != wname {
			t.Fatalf("resolve(%q) path %q, oracle %q", name, cname, wname)
		}
		if first != want[0].node {
			t.Fatalf("resolve(%q) first node differs from the oracle's", name)
		}
		mounted, ok := (*nsp.mnt.Load())[cname]
		switch {
		case ok && (len(union) != len(mounted) || &union[0] != &mounted[0]):
			t.Fatalf("resolve(%q) at a mount point returned %d entries, not the table's union", name, len(union))
		case ok && (len(want) != len(mounted) || &want[0] != &mounted[0]):
			t.Fatalf("oracle(%q) at a mount point returned %d entries, not the table's union", name, len(want))
		case !ok && union != nil:
			t.Fatalf("resolve(%q) returned a union off a mount point", name)
		case !ok && len(want) != 1:
			t.Fatalf("oracle(%q) returned %d candidates off a mount point", name, len(want))
		}
	})
}
