package ftp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ftp"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// files are what bootes's FTP service serves.
var files = []struct{ path, text string }{
	{"pub/README", "welcome to bootes ftp\n"},
	{"pub/src/main.c", "main(){}\n"},
}

// onFTPWorld runs body in the paper's world on a discrete-event clock,
// with an FTP service on bootes serving files and musca's ftpfs mounted
// on /n/ftp, and hands it bootes and musca. body runs as a machine
// process: it reports a fatal failure by returning it, and the world is
// closed before Run returns.
func onFTPWorld(t *testing.T, profiles core.PaperProfiles, body func(bootes, musca *core.Machine) error) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		w, err := core.PaperWorld(profiles, v)
		if err == nil {
			defer w.Close()
			err = mountFTP(w.Machine("bootes"), w.Machine("musca"))
		}
		if err == nil {
			err = body(w.Machine("bootes"), w.Machine("musca"))
		}
		if err != nil {
			t.Error(err)
		}
	})
}

func mountFTP(bootes, musca *core.Machine) error {
	for _, f := range files {
		if err := bootes.Root.WriteFile(f.path, []byte(f.text), 0664); err != nil {
			return err
		}
	}
	if _, err := bootes.ServeFTP("tcp!*!ftp", "/", ftp.ServerConfig{User: "glenda", Pass: "rabbit"}); err != nil {
		return err
	}
	_, err := musca.MountFTP("tcp!bootes!ftp", "glenda", "rabbit", "/n/ftp")
	return err
}

func TestLoginAndReadThroughMount(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(_, musca *core.Machine) error {
		b, err := musca.NS.ReadFile("/n/ftp/pub/README")
		if err != nil || string(b) != "welcome to bootes ftp\n" {
			return fmt.Errorf("read over ftpfs: %q, %v", b, err)
		}
		// Nested directories walk and read.
		b, err = musca.NS.ReadFile("/n/ftp/pub/src/main.c")
		if err != nil || string(b) != "main(){}\n" {
			return fmt.Errorf("nested read: %q, %v", b, err)
		}
		return nil
	})
}

func TestBadPasswordRefused(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(_, musca *core.Machine) error {
		_, err := musca.MountFTP("tcp!bootes!ftp", "glenda", "wrong", "/n/ftp")
		if !vfs.SameError(err, vfs.ErrPerm) {
			t.Errorf("bad password error = %v", err)
		}
		return nil
	})
}

func TestDirectoryListing(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(_, musca *core.Machine) error {
		ents, err := musca.NS.ReadDir("/n/ftp/pub")
		if err != nil {
			return err
		}
		names := map[string]bool{}
		for _, e := range ents {
			names[e.Name] = e.IsDir()
		}
		if isDir, ok := names["README"]; !ok || isDir {
			t.Errorf("README entry wrong: %v", names)
		}
		if isDir, ok := names["src"]; !ok || !isDir {
			t.Errorf("src entry wrong: %v", names)
		}
		return nil
	})
}

func TestCachingReducesTraffic(t *testing.T) {
	// "Files and directories are cached to reduce traffic": a repeat
	// read must not touch the server. Detection: remove the file on
	// the server behind ftpfs's back; the cached copy still reads.
	onFTPWorld(t, core.FastProfiles(), func(bootes, musca *core.Machine) error {
		if _, err := musca.NS.ReadFile("/n/ftp/pub/README"); err != nil {
			return err
		}
		n, _ := bootes.Root.Root().Walk("pub")
		f, _ := n.Walk("README")
		if err := f.(vfs.Remover).Remove(); err != nil {
			return err
		}
		b, err := musca.NS.ReadFile("/n/ftp/pub/README")
		if err != nil || string(b) != "welcome to bootes ftp\n" {
			t.Errorf("cached read after server-side remove: %q, %v", b, err)
		}
		return nil
	})
}

func TestCreateAndStore(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(bootes, musca *core.Machine) error {
		// Touch the directory cache first, then create.
		musca.NS.ReadDir("/n/ftp/pub")
		if err := musca.NS.WriteFile("/n/ftp/pub/new.txt", []byte("stored via ftp"), 0664); err != nil {
			return err
		}
		b, err := bootes.Root.ReadFile("pub/new.txt")
		if err != nil || string(b) != "stored via ftp" {
			return fmt.Errorf("server side after STOR: %q, %v", b, err)
		}
		// The cache shows the new file immediately.
		ents, _ := musca.NS.ReadDir("/n/ftp/pub")
		found := false
		for _, e := range ents {
			if e.Name == "new.txt" {
				found = true
			}
		}
		if !found {
			t.Error("created file not visible in cached directory")
		}
		return nil
	})
}

func TestMkdirAndRemove(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(bootes, musca *core.Machine) error {
		fd, err := musca.NS.Create("/n/ftp/pub/newdir", vfs.DMDIR|0775, vfs.OREAD)
		if err != nil {
			return err
		}
		fd.Close()
		if _, err := bootes.Root.ReadFile("pub/newdir"); !vfs.SameError(err, vfs.ErrIsDir) {
			t.Errorf("server-side mkdir missing: %v", err)
		}
		// Remove a file through ftpfs.
		if err := musca.NS.Remove("/n/ftp/pub/README"); err != nil {
			return err
		}
		if _, err := bootes.Root.ReadFile("pub/README"); err == nil {
			t.Error("DELE did not remove the server file")
		}
		return nil
	})
}

func TestWalkMissing(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(_, musca *core.Machine) error {
		if _, err := musca.NS.Open("/n/ftp/pub/nothing", vfs.OREAD); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("missing file error = %v", err)
		}
		return nil
	})
}

func TestAnonymousWhenNoCredentials(t *testing.T) {
	onFTPWorld(t, core.FastProfiles(), func(_, musca *core.Machine) error {
		helix := musca.World.Machine("helix")
		helix.Root.WriteFile("pub/x", []byte("anon"), 0664)
		if _, err := helix.ServeFTP("tcp!*!ftp", "/pub", ftp.ServerConfig{}); err != nil {
			return err
		}
		if _, err := musca.MountFTP("tcp!helix!ftp", "anonymous", "x@y", "/n/ftp"); err != nil {
			return err
		}
		b, err := musca.NS.ReadFile("/n/ftp/x")
		if err != nil || string(b) != "anon" {
			t.Errorf("anonymous read: %q, %v", b, err)
		}
		return nil
	})
}

func TestStringsInFetchedTree(t *testing.T) {
	// A tree walk through several directories (cache warm-up path).
	onFTPWorld(t, core.FastProfiles(), func(bootes, musca *core.Machine) error {
		bootes.Root.WriteFile("pub/deep/a/b/c.txt", []byte("deep file"), 0664)
		b, err := musca.NS.ReadFile("/n/ftp/pub/deep/a/b/c.txt")
		if err != nil || !strings.Contains(string(b), "deep") {
			t.Errorf("deep read: %q, %v", b, err)
		}
		return nil
	})
}
