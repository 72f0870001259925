package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
)

// fakeTB records the failure Check reports instead of failing the
// real test.
type fakeTB struct {
	testing.TB
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

func TestCleanRunPasses(t *testing.T) {
	f := &fakeTB{}
	Check(f)
	if f.failed {
		t.Fatalf("clean run flagged as leaking:\n%s", f.msg)
	}
}

func leakyPump(stop chan struct{}) { <-stop }

func TestCatchesLeakAndNamesIt(t *testing.T) {
	old := maxWait
	maxWait = 200 * time.Millisecond
	defer func() { maxWait = old }()

	stop := make(chan struct{})
	go leakyPump(stop)
	f := &fakeTB{}
	Check(f)
	close(stop)
	if !f.failed {
		t.Fatal("leaked goroutine not reported")
	}
	if !strings.Contains(f.msg, "leakyPump") {
		t.Errorf("report does not name the leaking function:\n%s", f.msg)
	}
}

func TestGracePeriodCoversLateExits(t *testing.T) {
	stop := make(chan struct{})
	go leakyPump(stop)
	// The pump exits only after Check has started polling.
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	f := &fakeTB{}
	Check(f)
	if f.failed {
		t.Fatalf("goroutine that exits within the grace period flagged:\n%s", f.msg)
	}
}

// TestUnfreedBlockFailsTheBooks: a block allocated and never freed is
// what Main's block books report, by count and, under -race, by the
// site that allocated it; once it is freed the books are clean.
func TestUnfreedBlockFailsTheBooks(t *testing.T) {
	if msg := unfreed(); msg != "" {
		t.Fatalf("books not clean before the test:\n%s", msg)
	}
	b := block.Alloc(64, 0)
	msg := unfreed()
	b.Free()
	if !strings.Contains(msg, "1 block(s) never freed") {
		t.Errorf("unfreed block not reported:\n%s", msg)
	}
	if block.RaceEnabled && !strings.Contains(msg, "TestUnfreedBlockFailsTheBooks") {
		t.Errorf("report does not name the allocation site:\n%s", msg)
	}
	if msg := unfreed(); msg != "" {
		t.Errorf("books not clean after the free:\n%s", msg)
	}
}
