// Package leakcheck is the repo's leak gate, for goroutines and for
// blocks. netvet has no static counterpart for either: a simulated
// machine starts its goroutines through its clock, where a check of go
// statements cannot follow them, and a block handed on by ownership
// (§2.4) is freed wherever its last owner happens to be.
//
// A test that spins up stream queues, protocol engines, or a whole
// paper-world must wind every goroutine down when its machines close; a
// survivor either wedges a later test or hides a real shutdown bug.
// The gate diffs the live goroutine set against the module's own code
// paths after the test body returns, giving stragglers a grace period
// to finish parking out of existence.
//
// Once a package's goroutines are gone, every block it allocated must
// be back: Main fails the package if the block allocator's books show
// one in flight. A -race build records each live block's allocation
// site, and the failure names the sites; a plain build reports the
// count. Raw GetBytes buffers are not gated: they may fall to the
// garbage collector by design.
//
// Usage, one line per test (goroutines only: tests that run in
// parallel share the block books):
//
//	defer leakcheck.Check(t)
//
// or one gate for a whole package, goroutines and blocks:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
)

// maxWait bounds how long a lingering goroutine is given to exit
// before it is declared leaked. Shutdown in this module is
// asynchronous (close-wakes propagate through queues and conds), so
// the checker polls with backoff instead of failing on first sight.
// A variable, not a constant, so the self-test can shorten it.
var maxWait = 5 * time.Second

// Check fails t if goroutines running module code are still alive
// once the grace period lapses. Defer it first thing in the test so
// it runs after the test's own cleanup (world Close, conn Close).
func Check(t testing.TB) {
	t.Helper()
	if leaked := wait(); len(leaked) > 0 {
		t.Errorf("leaked %d goroutine(s):\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// Main wraps m.Run for packages that take a single gate at process
// exit, for goroutines and then for blocks.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: leaked %d goroutine(s):\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		} else if msg := unfreed(); msg != "" {
			fmt.Fprintln(os.Stderr, msg)
			code = 1
		}
	}
	os.Exit(code)
}

// unfreed reads the block allocator's books: empty when every block
// is back, else the count and, under -race, the allocation sites.
func unfreed() string {
	n := block.Snapshot().InFlight
	if n == 0 {
		return ""
	}
	msg := fmt.Sprintf("leakcheck: %d block(s) never freed", n)
	if sites := block.Outstanding(); len(sites) > 0 {
		msg += ", allocated at:\n\t" + strings.Join(sites, "\n\t")
	} else {
		msg += " (run with -race to name their allocation sites)"
	}
	return msg
}

// wait polls for the interesting set to drain, with exponential
// backoff up to maxWait, and returns whatever is left.
func wait() []string {
	//netvet:ignore realtime polls the real runtime for goroutine exit
	deadline := time.Now().Add(maxWait)
	delay := time.Millisecond
	for {
		leaked := interesting()
		if len(leaked) == 0 || time.Now().After(deadline) { //netvet:ignore realtime polls the real runtime for goroutine exit
			return leaked
		}
		//netvet:ignore realtime polls the real runtime for goroutine exit
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// interesting snapshots every goroutine and keeps the ones running
// (or created by) this module's code. The calling goroutine, other
// tests' tRunner goroutines, and runtime/testing machinery are not
// ours to account for.
func interesting() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	records := strings.Split(string(buf[:n]), "\n\n")
	var out []string
	for i, rec := range records {
		if i == 0 {
			continue // the goroutine calling Check
		}
		if !strings.Contains(rec, "repro/internal/") && !strings.Contains(rec, "repro/cmd/") {
			continue
		}
		if strings.Contains(rec, "testing.tRunner") {
			continue // a (parallel) test body, joined by the framework
		}
		out = append(out, rec)
	}
	return out
}
