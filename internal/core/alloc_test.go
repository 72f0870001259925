package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/dialer"
)

// maxDialBytes bounds what one call to an echo service costs the heap
// from dial to hangup, both ends together: the conversations, their
// streams, the protocol state and the dial's connection-server query.
// A per-call 8 KiB echo buffer, or a per-conversation trace ring, pushes
// every network past it.
const maxDialBytes = 12 << 10

// maxDialObjects bounds the objects of one such call, per network. A
// conversation directory generated afresh for every walk, a ctl file's
// closures, or a deadline's, put a call back at 104 (dk) and 78 (il,
// tcp); a Datakit circuit built as two pipes with mailboxes and
// closures, URP ends that box their wire and grow their windows, a
// deadline whose first arm makes a closure, or cs answers read into a
// string a line, put it back at 74 (dk) and 48 (il, tcp).
var maxDialObjects = map[string]uint64{
	"dk!nj/astro/helix!echo": 47,
	"il!helix!echo":          40,
	"tcp!helix!echo":         40,
}

// TestAllocsDialBytes: the per-dial gate. On the virtual clock a call —
// dial, one echo, hangup, and a simulated second for both ends to let
// go of the conversation — allocates the same bytes and objects on
// every run; the gate reads runtime.MemStats' TotalAlloc and Mallocs
// across twenty calls after three to warm the pools.
func TestAllocsDialBytes(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, dest := range []string{"dk!nj/astro/helix!echo", "il!helix!echo", "tcp!helix!echo"} {
		onPaperWorld(t, FastProfiles(), func(w *World) error {
			musca := w.Machine("musca")
			ck := w.Clock()
			call := func() error {
				conn, err := dialer.Dial(musca.NS, dest)
				if err != nil {
					return err
				}
				err = echo(conn, "ping")
				conn.Close()
				ck.Sleep(time.Second)
				return err
			}
			for range 3 {
				if err := call(); err != nil {
					return err
				}
			}
			const n = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range n {
				if err := call(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			per, objs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
			t.Logf("%s: %d bytes, %d objects per call", dest, per, objs)
			if per > maxDialBytes {
				return fmt.Errorf("a call to %s allocates %d bytes, want <= %d (the echo's buffer made per call again?)", dest, per, maxDialBytes)
			}
			if objs > maxDialObjects[dest] {
				return fmt.Errorf("a call to %s allocates %d objects, want <= %d", dest, objs, maxDialObjects[dest])
			}
			return nil
		})
	}
}
