package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// TestCpuSession reproduces §6's cpu: the remote process's name space
// is an analogue of the terminal's window — the terminal serves its
// files over the call with exportfs, the CPU server mounts them at
// /mnt/term in the session's own (cloned) name space, computes, and
// writes the result back into the terminal.
func TestCpuSession(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		helix := w.Machine("helix")
		musca := w.Machine("musca") // the terminal
		ck := w.Clock()

		done := vclock.NewMailbox[error](ck, 1)
		if _, err := helix.Serve("il!*!cpu", func(nsp *ns.Namespace, conn *dialer.Conn) {
			done.Send(cpuSession(ck, nsp, conn))
		}); err != nil {
			return err
		}

		if err := musca.NS.WriteFile("/tmp/in", []byte("shout this"), 0664); err != nil {
			return err
		}
		conn, err := dialer.Dial(musca.NS, "il!helix!cpu")
		if err != nil {
			return err
		}
		defer conn.Close()
		ck.Go(func() { exportfs.ServeClock(ninep.NewDelimConn(conn), musca.NS, "/", ck) })

		if err, _ := done.Recv(); err != nil {
			return err
		}
		b, err := musca.NS.ReadFile("/tmp/out")
		if err != nil || string(b) != "SHOUT THIS" {
			return fmt.Errorf("terminal result %q, %v", b, err)
		}

		// The session ran in a cloned name space: the machine's own
		// view has no /mnt/term.
		if _, err := helix.NS.Stat("/mnt/term"); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("session mount leaked into the machine name space: %v", err)
		}
		return nil
	})
}

// cpuSession is the CPU server's side of a call: mount the terminal's
// files at /mnt/term, read the input, write the result back. The mount
// runs on the machine's clock, as every process of the session must.
func cpuSession(ck vclock.Clock, nsp *ns.Namespace, conn *dialer.Conn) error {
	root, cl, err := mnt.MountConfig(ninep.NewDelimConn(conn), nsp.User(), "", mnt.Config{Client: ninep.ClientConfig{Clock: ck}})
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := nsp.MountNode(root, "/mnt/term", ns.MREPL); err != nil {
		return err
	}
	b, err := nsp.ReadFile("/mnt/term/tmp/in")
	if err != nil {
		return err
	}
	return nsp.WriteFile("/mnt/term/tmp/out", []byte(strings.ToUpper(string(b))), 0664)
}
