package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/dialer"
	"repro/internal/il"
	"repro/internal/ns"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// TestPartitionKillsConnections injects a network partition: the
// remote stack goes away mid-conversation and the local end must fail
// at the kernel's death time rather than hang. Thirty seconds cost
// nothing on the virtual clock.
func TestPartitionKillsConnections(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		conn, err := dialer.Dial(w.Machine("musca").NS, "il!helix!echo")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := echo(conn, "alive"); err != nil {
			return err
		}

		// The partition: helix vanishes.
		w.Machine("helix").Stack.Close()

		// Unacknowledged traffic must eventually kill the conversation.
		conn.Write([]byte("into the void"))
		if el, _ := readUntilError(w.Clock(), conn, 5*time.Minute); el < 30*time.Second || el > 31*time.Second {
			t.Errorf("partitioned conversation died after %v, want IL's 30 s death time", el)
		}
		return nil
	})
}

// TestMountDeathReportsErrors: a 9P mount whose server dies reports
// errors on use instead of wedging the name space.
func TestMountDeathReportsErrors(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		bootes := w.Machine("bootes")
		musca := w.Machine("musca")
		bootes.Root.WriteFile("lib/alive", []byte("yes"), 0664)
		cl, err := musca.Import("tcp!bootes!9fs", "/", "/n/b", ns.MREPL)
		if err != nil {
			return err
		}
		if _, err := musca.NS.ReadFile("/n/b/lib/alive"); err != nil {
			return err
		}
		// Kill the transport from the client side (the clean half of a
		// server death) and verify errors, not hangs.
		cl.Close()
		if _, err := musca.NS.ReadFile("/n/b/lib/alive"); err == nil {
			t.Error("read through dead mount succeeded")
		}
		// The rest of the name space is unharmed.
		if _, err := musca.NS.Stat("/net/cs"); err != nil {
			t.Errorf("name space damaged: %v", err)
		}
		return nil
	})
}

// TestWindowEnforcedUnderPressure pumps a hundred one-packet messages
// at a server that never reads and, after every write, reads the
// conversation's status file the way netstat would: the count of
// unacknowledged packets it reports must never pass the window it
// reports (§3's small outstanding-message window, which for one-packet
// messages is also a window of packets).
func TestWindowEnforcedUnderPressure(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		helix := w.Machine("helix")
		slowDone := vclock.NewMailbox[struct{}](w.Clock(), 1)
		if _, err := helix.Serve("il!*!daytime", func(nsp *ns.Namespace, conn *dialer.Conn) {
			slowDone.Recv() // never reads until the test ends
		}); err != nil {
			return err
		}
		defer slowDone.Close()
		conn, err := dialer.Dial(musca.NS, "il!helix!daytime")
		if err != nil {
			return err
		}
		defer conn.Close()
		for i := range 100 {
			if _, err := conn.Write([]byte("pressure")); err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
			st, err := musca.NS.ReadFile(conn.Dir + "/status")
			if err != nil {
				return err
			}
			var unacked, window int
			if at := strings.Index(string(st), "unacked "); at < 0 {
				return fmt.Errorf("status %q has no window detail", st)
			} else if _, err := fmt.Sscanf(string(st[at:]), "unacked %d window %d", &unacked, &window); err != nil {
				return fmt.Errorf("status %q: %w", st, err)
			}
			if window != il.Window || unacked > window {
				return fmt.Errorf("after write %d: %d unacknowledged, window %d (want at most %d)", i, unacked, window, il.Window)
			}
		}
		return nil
	})
}

// TestReadAfterConnClose: reads on a closed conversation fail, not
// hang.
func TestReadAfterConnClose(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		conn, err := dialer.Dial(w.Machine("musca").NS, "il!helix!echo")
		if err != nil {
			return err
		}
		conn.Close()
		buf := make([]byte, 8)
		for {
			if _, err := conn.Data.Read(buf); err != nil {
				return nil
			}
		}
	})
}

// TestEOFSemanticsThroughFD: a hangup surfaces as io.EOF through the
// name-space FD, like reading a closed pipe.
func TestEOFSemanticsThroughFD(t *testing.T) {
	onPaperWorld(t, FastProfiles(), func(w *World) error {
		musca := w.Machine("musca")
		helix := w.Machine("helix")
		if _, err := helix.Serve("il!*!systat", func(nsp *ns.Namespace, conn *dialer.Conn) {
			conn.Write([]byte("one line\n"))
		}); err != nil {
			return err
		}
		conn, err := dialer.Dial(musca.NS, "il!helix!systat")
		if err != nil {
			return err
		}
		defer conn.Close()
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil || string(buf[:n]) != "one line\n" {
			return fmt.Errorf("read %q, %v", buf[:n], err)
		}
		el, err := readUntilError(w.Clock(), conn, 5*time.Second)
		if el >= 5*time.Second {
			return errors.New("no EOF after server close")
		}
		if err != io.EOF && !vfs.SameError(err, vfs.ErrHungup) {
			t.Errorf("end-of-conversation error = %v", err)
		}
		return nil
	})
}
