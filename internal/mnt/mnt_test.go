package mnt

import (
	"testing"

	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onMount runs body on a fresh virtual clock with a mount, configured
// by cfg on that clock, of a ramfs served over a pipe.
func onMount(t *testing.T, cfg Config, body func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, cl *ninep.Client)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("srv", v)
		a, b := ninep.NewPipe(v)
		v.Go(func() {
			ninep.Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, v)
		})
		cfg.Client.Clock = v
		root, cl, err := MountConfig(a, "glenda", "", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		body(v, root, fs, cl)
	})
}

func TestWalkStatOpenReadWrite(t *testing.T) {
	onMount(t, Config{}, func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		fs.WriteFile("dir/f", []byte("remote bytes"), 0664)
		n, err := root.Walk("dir")
		if err != nil {
			t.Error(err)
			return
		}
		f, err := n.Walk("f")
		if err != nil {
			t.Error(err)
			return
		}
		d, err := f.Stat()
		if err != nil || d.Name != "f" || d.Length != 12 {
			t.Errorf("stat %+v, %v", d, err)
			return
		}
		h, err := f.Open(vfs.ORDWR)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32)
		rn, err := h.Read(buf, 0)
		if err != nil || string(buf[:rn]) != "remote bytes" {
			t.Errorf("read %q, %v", buf[:rn], err)
			return
		}
		if _, err := h.Write([]byte("X"), 0); err != nil {
			t.Error(err)
			return
		}
		h.Close()
		b, _ := fs.ReadFile("dir/f")
		if string(b) != "Xemote bytes" {
			t.Errorf("server contents %q", b)
		}
		// The node stays walkable after an open (Open clones the fid).
		if _, err := n.Walk("f"); err != nil {
			t.Errorf("node lost walkability: %v", err)
		}
	})
}

func TestCreateRemoveWstat(t *testing.T) {
	onMount(t, Config{}, func(v *vclock.Virtual, root vfs.Node, fs *ramfs.FS, _ *ninep.Client) {
		cr, ok := root.(vfs.Creator)
		if !ok {
			t.Error("mnt node is not a Creator")
			return
		}
		nn, h, err := cr.Create("new", 0664, vfs.OWRITE)
		if err != nil {
			t.Error(err)
			return
		}
		h.Write([]byte("created"), 0)
		h.Close()
		if b, _ := fs.ReadFile("new"); string(b) != "created" {
			t.Errorf("created contents %q", b)
		}
		// Wstat renames through the wire.
		if err := nn.(vfs.Wstater).Wstat(vfs.Dir{Name: "renamed"}); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.ReadFile("renamed"); err != nil {
			t.Error("rename did not reach the server")
		}
		// Remove.
		rn, err := root.Walk("renamed")
		if err != nil {
			t.Error(err)
			return
		}
		if err := rn.(vfs.Remover).Remove(); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.ReadFile("renamed"); err == nil {
			t.Error("remove did not reach the server")
		}
	})
}

func TestErrorsPropagate(t *testing.T) {
	onMount(t, Config{}, func(v *vclock.Virtual, root vfs.Node, _ *ramfs.FS, _ *ninep.Client) {
		if _, err := root.Walk("missing"); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("missing walk error = %v", err)
		}
		n, _ := root.Walk("..") // ramfs root loops to itself
		if n == nil {
			t.Error(".. walk failed")
		}
	})
}

func TestClosedClientFailsCleanly(t *testing.T) {
	onMount(t, Config{}, func(v *vclock.Virtual, root vfs.Node, _ *ramfs.FS, cl *ninep.Client) {
		cl.Close()
		if _, err := root.Walk("x"); err == nil {
			t.Error("walk on closed client succeeded")
		}
		if _, err := root.Stat(); err == nil {
			t.Error("stat on closed client succeeded")
		}
	})
}
