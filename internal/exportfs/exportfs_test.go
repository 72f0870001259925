package exportfs

import (
	"testing"

	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onClock runs body as the root of a fresh virtual clock.
func onClock(body func(ck vclock.Clock)) {
	vclock.Simulate(func(ck vclock.Clock) error {
		body(ck)
		return nil
	})
}

// exported serves a remote machine's name space from root over a pipe
// and returns the local client end; closing it ends the server.
func exported(ck vclock.Clock, remote *ns.Namespace, root string) ninep.MsgConn {
	a, b := ninep.NewPipe(ck)
	ck.Go(func() { Serve(b, remote, root, ck) })
	return a
}

// mountConfig is the zero mnt.Config on ck.
func mountConfig(ck vclock.Clock) mnt.Config {
	return mnt.Config{Client: ninep.ClientConfig{Clock: ck}}
}

func TestImportWholeTree(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("helix", ck)
		rfs.WriteFile("lib/ndb/local", []byte("sys=helix\n"), 0664)
		remote := ns.New("helix", rfs.Root())

		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/"), "", "/n/helix", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()

		b, err := local.ReadFile("/n/helix/lib/ndb/local")
		if err != nil || string(b) != "sys=helix\n" {
			t.Errorf("imported read %q, %v", b, err)
		}
	})
}

func TestImportSubtreeViaAname(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("helix", ck)
		rfs.WriteFile("a/b/c", []byte("deep"), 0664)
		remote := ns.New("helix", rfs.Root())
		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/a"), "b", "/mnt", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		b, err := local.ReadFile("/mnt/c")
		if err != nil || string(b) != "deep" {
			t.Errorf("aname import read %q, %v", b, err)
		}
	})
}

func TestExportRefusesMissingRoot(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		remote := ns.New("helix", ramfs.NewClock("helix", ck).Root())
		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		_, err := ImportConfig(local, exported(ck, remote, "/"), "missing", "/mnt", ns.MREPL, mountConfig(ck))
		if !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("import of missing subtree = %v", err)
		}
	})
}

func TestWritesPropagateBack(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("helix", ck)
		rfs.MkdirAll("tmp", 0775)
		remote := ns.New("helix", rfs.Root())
		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/tmp"), "", "/r", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		if err := local.WriteFile("/r/out", []byte("written remotely"), 0664); err != nil {
			t.Error(err)
			return
		}
		b, err := rfs.ReadFile("tmp/out")
		if err != nil || string(b) != "written remotely" {
			t.Errorf("remote side saw %q, %v", b, err)
		}
		// Remove propagates too.
		if err := local.Remove("/r/out"); err != nil {
			t.Error(err)
			return
		}
		if _, err := rfs.ReadFile("tmp/out"); err == nil {
			t.Error("remote file survived local remove")
		}
	})
}

func TestExportFollowsRemoteMounts(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		// The §6.1 gateway property: the exporter's *name space* is
		// exported, so trees mounted on the remote machine are visible
		// through the import.
		rfs := ramfs.NewClock("helix", ck)
		rfs.MkdirAll("net", 0775)
		remote := ns.New("helix", rfs.Root())
		dev := ramfs.NewClock("helix", ck)
		dev.WriteFile("clone", []byte("tcp-clone"), 0666)
		remote.MountNode(dev.Root(), "/net/tcp", ns.MREPL)

		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/net"), "", "/net", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		b, err := local.ReadFile("/net/tcp/clone")
		if err != nil || string(b) != "tcp-clone" {
			t.Errorf("remote mount not visible through export: %q, %v", b, err)
		}
	})
}

func TestImportAfterUnionsLikeThePaper(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		// philw-gnot% import -a musca /net — the union lists both local
		// and remote entries, local first.
		lfs := ramfs.NewClock("gnot", ck)
		lfs.WriteFile("net/cs", []byte("local"), 0666)
		lfs.WriteFile("net/dk", []byte("local"), 0666)
		local := ns.New("gnot", lfs.Root())

		rfs := ramfs.NewClock("musca", ck)
		for _, name := range []string{"cs", "dk", "dns", "ether", "il", "tcp", "udp"} {
			rfs.WriteFile("net/"+name, []byte("remote"), 0666)
		}
		remote := ns.New("musca", rfs.Root())

		cl, err := ImportConfig(local, exported(ck, remote, "/net"), "", "/net", ns.MAFTER, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()

		ents, err := local.ReadDir("/net")
		if err != nil {
			t.Error(err)
			return
		}
		count := map[string]int{}
		for _, e := range ents {
			count[e.Name]++
		}
		if count["cs"] != 2 || count["dk"] != 2 {
			t.Errorf("cs/dk should list twice, got %v", count)
		}
		for _, name := range []string{"dns", "ether", "il", "tcp", "udp"} {
			if count[name] != 1 {
				t.Errorf("remote-only %s listed %d times", name, count[name])
			}
		}
		// Local supersedes remote.
		if b, _ := local.ReadFile("/net/cs"); string(b) != "local" {
			t.Errorf("/net/cs = %q, want local", b)
		}
		// Remote-only entries reachable.
		if b, _ := local.ReadFile("/net/tcp"); string(b) != "remote" {
			t.Errorf("/net/tcp = %q, want remote", b)
		}
	})
}

func TestNestedExport(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		// A imports from B; C imports from A and sees B's files relayed
		// through two 9P hops — exportfs as a relay file server.
		bfs := ramfs.NewClock("b", ck)
		bfs.WriteFile("data", []byte("origin"), 0664)
		nsB := ns.New("b", bfs.Root())

		nsA := ns.New("a", ramfs.NewClock("a", ck).Root())
		pAB, pBA := ninep.NewPipe(ck)
		ck.Go(func() { Serve(pBA, nsB, "/", ck) })
		clAB, err := ImportConfig(nsA, pAB, "", "/b", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer clAB.Close()

		nsC := ns.New("c", ramfs.NewClock("c", ck).Root())
		pCA, pAC := ninep.NewPipe(ck)
		ck.Go(func() { Serve(pAC, nsA, "/", ck) })
		clCA, err := ImportConfig(nsC, pCA, "", "/a", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer clCA.Close()

		got, err := nsC.ReadFile("/a/b/data")
		if err != nil || string(got) != "origin" {
			t.Errorf("two-hop read %q, %v", got, err)
		}
	})
}

func TestMountDriverDirectoryReads(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("helix", ck)
		rfs.WriteFile("d/x", nil, 0664)
		rfs.WriteFile("d/y", nil, 0664)
		rfs.WriteFile("d/z", nil, 0664)
		remote := ns.New("helix", rfs.Root())
		local := ns.New("glenda", ramfs.NewClock("glenda", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/"), "", "/r", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		ents, err := local.ReadDir("/r/d")
		if err != nil || len(ents) != 3 {
			t.Errorf("remote dir entries %v, %v", ents, err)
			return
		}
		if ents[0].Name != "x" || ents[2].Name != "z" {
			t.Errorf("entry names %v", ents)
		}
	})
}

func TestMountNodeDirectly(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		// mnt.MountConfig is usable without the ImportConfig wrapper.
		rfs := ramfs.NewClock("srv", ck)
		rfs.WriteFile("f", []byte("1"), 0664)
		remote := ns.New("srv", rfs.Root())
		a, b := ninep.NewPipe(ck)
		ck.Go(func() { Serve(b, remote, "/", ck) })
		root, cl, err := mnt.MountConfig(a, "me", "", mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		n, err := root.Walk("f")
		if err != nil {
			t.Error(err)
			return
		}
		d, _ := n.Stat()
		if d.Length != 1 {
			t.Errorf("stat through mnt %+v", d)
		}
		h, err := n.Open(vfs.OREAD)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4)
		rn, _ := h.Read(buf, 0)
		if string(buf[:rn]) != "1" {
			t.Errorf("read through mnt %q", buf[:rn])
		}
		h.Close()
	})
}

func TestMkdirAndRemoveThroughImport(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("srv", ck)
		rfs.MkdirAll("work", 0775)
		remote := ns.New("srv", rfs.Root())
		local := ns.New("me", ramfs.NewClock("me", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/work"), "", "/w", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		fd, err := local.Create("/w/subdir", vfs.DMDIR|0775, vfs.OREAD)
		if err != nil {
			t.Error(err)
			return
		}
		fd.Close()
		d, err := remote.Stat("/work/subdir")
		if err != nil || !d.IsDir() {
			t.Errorf("remote mkdir: %+v, %v", d, err)
			return
		}
		if err := local.WriteFile("/w/subdir/file", []byte("deep"), 0664); err != nil {
			t.Error(err)
			return
		}
		if err := local.Remove("/w/subdir/file"); err != nil {
			t.Error(err)
			return
		}
		if err := local.Remove("/w/subdir"); err != nil {
			t.Error(err)
			return
		}
		if _, err := remote.Stat("/work/subdir"); err == nil {
			t.Error("remote directory survived removal")
		}
	})
}

func TestStatWstatThroughImport(t *testing.T) {
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("srv", ck)
		rfs.WriteFile("f", []byte("xyz"), 0664)
		remote := ns.New("srv", rfs.Root())
		local := ns.New("me", ramfs.NewClock("me", ck).Root())
		cl, err := ImportConfig(local, exported(ck, remote, "/"), "", "/r", ns.MREPL, mountConfig(ck))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		d, err := local.Stat("/r/f")
		if err != nil || d.Length != 3 {
			t.Errorf("remote stat %+v, %v", d, err)
			return
		}
		if err := local.Wstat("/r/f", vfs.Dir{Name: "g"}); err != nil {
			t.Error(err)
			return
		}
		if _, err := remote.Stat("/g"); err != nil {
			t.Error("remote rename via wstat missing")
		}
	})
}
