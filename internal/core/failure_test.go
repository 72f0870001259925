package core

import (
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
	onVirtualEther(t, FastProfiles().Ether, []string{"helix", "musca"}, func(v *vclock.Virtual, ms []*Machine) {
		helix, musca := ms[0], ms[1]
		if _, err := helix.ServeEcho("il!*!echo"); err != nil {
			t.Error(err)
			return
		}
		conn, err := dialer.Dial(musca.NS, "il!helix!echo")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		conn.Write([]byte("alive"))
		buf := make([]byte, 16)
		if _, err := conn.Read(buf); err != nil {
			t.Error(err)
			return
		}

		// The partition: helix vanishes.
		helix.Stack.Close()

		// Unacknowledged traffic must eventually kill the conversation.
		// One that never died would tick its timer, and the clock, for
		// ever: the watchdog ends the read below either way.
		conn.Write([]byte("into the void"))
		start := v.Now()
		watchdog := v.AfterFunc(5*time.Minute, func() { conn.Close() })
		defer watchdog.Stop()
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		if el := v.Now().Sub(start); el < 30*time.Second || el > 31*time.Second {
			t.Errorf("partitioned conversation died after %v, want IL's 30 s death time", el)
		}
	})
}

// TestMountSurvivesServerRestartAttempt: a 9P mount whose server dies
// reports errors on use instead of wedging the name space.
func TestMountDeathReportsErrors(t *testing.T) {
	w := paperWorld(t)
	bootes := w.Machine("bootes")
	musca := w.Machine("musca")
	bootes.Root.WriteFile("lib/alive", []byte("yes"), 0664)
	cl, err := musca.Import("tcp!bootes!9fs", "/", "/n/b", ns.MREPL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := musca.NS.ReadFile("/n/b/lib/alive"); err != nil {
		t.Fatal(err)
	}
	// Kill the transport from the client side (the clean half of a
	// server death) and verify errors, not hangs.
	cl.Close()
	done := make(chan error, 1)
	go func() {
		_, err := musca.NS.ReadFile("/n/b/lib/alive")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read through dead mount succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read through dead mount hung")
	}
	// The rest of the name space is unharmed.
	if _, err := musca.NS.Stat("/net/cs"); err != nil {
		t.Errorf("name space damaged: %v", err)
	}
}

// TestWindowEnforcedUnderPressure pumps a hundred one-packet messages
// at a server that never reads and, after every write, reads the
// conversation's status file the way netstat would: the count of
// unacknowledged packets it reports must never pass the window it
// reports (§3's small outstanding-message window, which for one-packet
// messages is also a window of packets).
func TestWindowEnforcedUnderPressure(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	helix := w.Machine("helix")
	slowDone := make(chan struct{})
	if _, err := helix.Serve("il!*!daytime", func(nsp *ns.Namespace, conn *dialer.Conn) {
		<-slowDone // never reads until the test ends
	}); err != nil {
		t.Fatal(err)
	}
	defer close(slowDone)
	conn, err := dialer.Dial(musca.NS, "il!helix!daytime")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := range 100 {
		if _, err := conn.Write([]byte("pressure")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		st, err := musca.NS.ReadFile(conn.Dir + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var unacked, window int
		if at := strings.Index(string(st), "unacked "); at < 0 {
			t.Fatalf("status %q has no window detail", st)
		} else if _, err := fmt.Sscanf(string(st[at:]), "unacked %d window %d", &unacked, &window); err != nil {
			t.Fatalf("status %q: %v", st, err)
		}
		if window != il.Window || unacked > window {
			t.Fatalf("after write %d: %d unacknowledged, window %d (want at most %d)", i, unacked, window, il.Window)
		}
	}
}

// TestReadAfterConnClose: reads on a closed conversation fail, not
// hang.
func TestReadAfterConnClose(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	conn, err := dialer.Dial(musca.NS, "il!helix!echo")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	buf := make([]byte, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := conn.Data.Read(buf); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read after close hung")
	}
}

// TestEOFSemanticsThroughFD: a hangup surfaces as io.EOF through the
// name-space FD, like reading a closed pipe.
func TestEOFSemanticsThroughFD(t *testing.T) {
	w := paperWorld(t)
	musca := w.Machine("musca")
	helix := w.Machine("helix")
	if _, err := helix.Serve("il!*!systat", func(nsp *ns.Namespace, conn *dialer.Conn) {
		conn.Write([]byte("one line\n"))
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := dialer.Dial(musca.NS, "il!helix!systat")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "one line\n" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.Read(buf); err != nil {
			if err != io.EOF && !vfs.SameError(err, vfs.ErrHungup) {
				t.Errorf("end-of-conversation error = %v", err)
			}
			return
		}
	}
	t.Fatal("no EOF after server close")
}
