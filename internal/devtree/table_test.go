package devtree

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// tconv is a test conversation: it remembers the slot it was opened in
// and counts its hangups.
type tconv struct {
	id   int
	hung atomic.Int32
	gate chan struct{} // when set, hangup parks here
	cmds []string
}

func (c *tconv) hangup() {
	if c.gate != nil {
		<-c.gate
	}
	c.hung.Add(1)
}

func newTestTable(first, n int) *Table[*tconv] {
	return NewTable(vclock.Real, first, n, (*tconv).hangup)
}

func openConv(id int) (*tconv, error) { return &tconv{id: id}, nil }

func mustClaim(t *testing.T, tb *Table[*tconv]) (Ref[*tconv], *tconv) {
	t.Helper()
	ref, err := tb.Claim(openConv)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	c, err := ref.Conv()
	if err != nil {
		t.Fatalf("conv of a fresh claim: %v", err)
	}
	return ref, c
}

// hold takes a reference to the tenancy, as an open ctl or data file
// does.
func hold(n Tenancy[*tconv]) (*Ref[*tconv], error) {
	ref, err := n.Hold()
	return &ref, err
}

// testDirs generates a test conversation's directory: a ctl file, a
// text file naming the conversation, and a file only conversations
// opened with a gate have.
var testDirs = &ConvDirs[*tconv]{
	Owner: "u",
	Files: []ConvFile[*tconv]{
		{Name: "ctl", Perm: 0666},
		{Name: "id", Perm: 0444, Text: func(c *tconv) string { return "conv " + strconv.Itoa(c.id) }},
		{Name: "gate", Perm: 0444, Text: func(*tconv) string { return "" }, Has: func(c *tconv) bool { return c.gate != nil }},
	},
	Open: func(n Tenancy[*tconv], kind, mode int) (vfs.Handle, error) {
		ref, err := n.Hold()
		if err != nil {
			return nil, err
		}
		return ref.Ctl(func(*tconv, string) error { return nil }), nil
	},
}

func names(t *testing.T, d *DirNode) string {
	t.Helper()
	ents, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	var ns []string
	for _, e := range ents {
		ns = append(ns, e.Name)
	}
	return strings.Join(ns, " ")
}

func TestTableLowestFreeReuse(t *testing.T) {
	for _, first := range []int{0, 1} {
		tb := newTestTable(first, 4)
		var refs [4]Ref[*tconv]
		for i := range refs {
			var c *tconv
			refs[i], c = mustClaim(t, tb)
			if c.id != first+i {
				t.Errorf("first %d: claim %d got conversation %d", first, i, c.id)
			}
		}
		refs[2].Release()
		refs[1].Release()
		if _, c := mustClaim(t, tb); c.id != first+1 {
			t.Errorf("first %d: after freeing %d and %d the next claim got %d", first, first+1, first+2, c.id)
		}
		if _, c := mustClaim(t, tb); c.id != first+2 {
			t.Errorf("first %d: second claim got %d, want %d", first, c.id, first+2)
		}
	}
}

func TestTableFullRefusesWithoutOpening(t *testing.T) {
	tb := newTestTable(0, 3)
	for range 3 {
		mustClaim(t, tb)
	}
	opened := false
	_, err := tb.Claim(func(id int) (*tconv, error) {
		opened = true
		return openConv(id)
	})
	if !vfs.SameError(err, vfs.ErrInUse) {
		t.Errorf("claim on a full table: %v, want %v", err, vfs.ErrInUse)
	}
	if opened {
		t.Error("a full table still asked the device for a conversation")
	}
}

func TestTableOpenErrorLeavesSlotFree(t *testing.T) {
	tb := newTestTable(0, 1)
	boom := errors.New("no buffers")
	ref, err := tb.Claim(func(int) (*tconv, error) { return nil, boom })
	if err != boom {
		t.Fatalf("claim = %v, want the open error", err)
	}
	if _, err := ref.Conv(); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("the failed claim's reference reaches a conversation: %v", err)
	}
	ref.Release() // a zero Ref: nothing to release
	root := tb.Root("dev", nil, testDirs)
	if got := names(t, root); got != "clone" {
		t.Errorf("after a failed open the device lists %q", got)
	}
	if _, c := mustClaim(t, tb); c.id != 0 {
		t.Errorf("slot 0 was lost to a failed open: next claim got %d", c.id)
	}
}

// TestTableLastReleaseHangsUpUnlocked parks a conversation's hangup —
// as a protocol's close can park on the wire — and requires every other
// table operation to go through meanwhile, including a new tenancy of
// the very slot being vacated. It runs on host threads and the real
// clock: a table locked across the hangup would stop a virtual clock
// itself, and only the host's can notice.
func TestTableLastReleaseHangsUpUnlocked(t *testing.T) {
	tb := newTestTable(0, 2)
	gate := make(chan struct{})
	ref, err := tb.Claim(func(id int) (*tconv, error) { return &tconv{id: id, gate: gate}, nil })
	if err != nil {
		t.Fatal(err)
	}
	first, _ := ref.Conv()
	tn := lookupTenancy(t, tb, "0")
	second, err := hold(tn)
	if err != nil {
		t.Fatal(err)
	}
	second.Release()
	if first.hung.Load() != 0 {
		t.Fatal("hung up with a reference outstanding")
	}
	released := make(chan struct{})
	go func() {
		ref.Release()
		close(released)
	}()

	done := make(chan string, 1)
	go func() {
		// Spin until the slot reads as free: the release is on its way
		// into the gated hangup.
		root := tb.Root("dev", nil, testDirs)
		for {
			ents, _ := root.List()
			if len(ents) == 1 {
				break
			}
			time.Sleep(time.Millisecond) //netvet:ignore realtime the release runs on another host thread; a table locked across the hangup stops only the host's clock
		}
		next, err := tb.Claim(openConv)
		if err != nil {
			done <- "claim while a hangup is parked: " + err.Error()
			return
		}
		c, _ := next.Conv()
		if c.id != 0 {
			done <- "the vacated slot was not reusable during its old tenant's hangup"
			return
		}
		n := 0
		tb.Each(func(int, *tconv) { n++ })
		if n != 1 {
			done <- "walk during a parked hangup saw the wrong conversations"
			return
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Error(msg)
		}
	case <-time.After(5 * time.Second): //netvet:ignore realtime a table locked across the hangup stops only the host's clock
		t.Fatal("the table is locked while a conversation hangs up")
	}
	select {
	case <-released:
		t.Error("release returned before the hangup finished")
	default:
	}
	close(gate)
	<-released
	if first.hung.Load() != 1 {
		t.Errorf("hung up %d times, want once", first.hung.Load())
	}
}

// lookupTenancy walks the table's root to a numbered directory and
// returns the tenancy it was generated for.
func lookupTenancy(t *testing.T, tb *Table[*tconv], name string) Tenancy[*tconv] {
	t.Helper()
	n, err := tb.Root("dev", nil, testDirs).Lookup(name)
	if err != nil {
		t.Fatalf("walk to %s: %v", name, err)
	}
	return n.(*convNode[*tconv]).n
}

func TestTableRootListsInOrder(t *testing.T) {
	tb := newTestTable(1, 12)
	stats := TextFile(MkFile("stats", "u", 0444), func() (string, error) { return "s", nil })
	root := tb.Root("ether0",
		func(int) (vfs.Handle, error) {
			ref, err := tb.Claim(openConv)
			if err != nil {
				return nil, err
			}
			return ref.Ctl(func(*tconv, string) error { return nil }), nil
		}, testDirs, stats)
	if got := names(t, root); got != "clone stats" {
		t.Errorf("empty device lists %q", got)
	}
	clone, err := root.Lookup("clone")
	if err != nil {
		t.Fatal(err)
	}
	var ctls []vfs.Handle
	for range 11 {
		h, err := clone.Open(vfs.ORDWR)
		if err != nil {
			t.Fatal(err)
		}
		ctls = append(ctls, h)
	}
	ctls[1].Close() // conversation 2
	ctls[8].Close() // conversation 9
	// Numeric, not lexical: 10 and 11 follow 8.
	if got := names(t, root); got != "clone stats 1 3 4 5 6 7 8 10 11" {
		t.Errorf("device lists %q", got)
	}
	if e, _ := root.Stat(); e.Name != "ether0" || e.Mode&vfs.DMDIR == 0 {
		t.Errorf("root entry %+v", e)
	}
	if n, err := root.Lookup("stats"); err != nil || n != vfs.Node(stats) {
		t.Errorf("walk to the device's own file: %v, %v", n, err)
	}
	for _, name := range []string{"0", "2", "9", "12", "13", "-1", "x", ""} {
		if _, err := root.Lookup(name); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("walk to %q: %v, want %v", name, err, vfs.ErrNotExist)
		}
	}
	if n, err := root.Lookup("10"); err != nil {
		t.Errorf("walk to a live conversation: %v", err)
	} else if d, _ := n.Stat(); d.Name != "10" || !d.IsDir() || d.Uid != "u" {
		t.Errorf("conversation 10's directory stats as %+v", d)
	}
}

// TestTenancyOutlived is the rule the table exists for: nothing that
// named or held an earlier tenancy of a slot can reach, hold open, or
// release the conversation that has the slot now.
func TestTenancyOutlived(t *testing.T) {
	tb := newTestTable(0, 1)
	var buf [16]byte
	ref, old := mustClaim(t, tb)
	walked := lookupTenancy(t, tb, "0")
	data, err := hold(walked)
	if err != nil {
		t.Fatal(err)
	}
	data.Release()
	if _, err := data.Conv(); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("released reference, conversation still live through another: Conv = %v, want %v", err, vfs.ErrHungup)
	}
	if c, err := walked.Conv(); err != nil || c != old {
		t.Errorf("tenancy with one reference left: Conv = %v, %v", c, err)
	}
	idText := func(c *tconv) string { return "conv " + strconv.Itoa(c.id) }
	if h, err := walked.text(vfs.OREAD, idText); err != nil {
		t.Error(err)
	} else if n, err := h.Read(buf[:], 0); err != nil || string(buf[:n]) != "conv 0" {
		t.Errorf("text file of a live tenancy: %q, %v", buf[:n], err)
	}
	ref.Release()
	if old.hung.Load() != 1 {
		t.Fatalf("last release hung up %d times", old.hung.Load())
	}
	if _, err := walked.Conv(); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("ended tenancy: Conv = %v, want %v", err, vfs.ErrHungup)
	}
	if _, err := hold(walked); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("ended tenancy reopened: %v, want %v", err, vfs.ErrHungup)
	}
	if h, err := walked.text(vfs.OREAD, idText); err != nil {
		t.Error(err)
	} else if _, err := h.Read(make([]byte, 8), 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("text file of an ended tenancy: %v, want %v", err, vfs.ErrHungup)
	}

	next, cur := mustClaim(t, tb)
	if cur.id != 0 || cur == old {
		t.Fatalf("slot 0 not handed to a new conversation")
	}
	if _, err := walked.Conv(); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("old tenancy reaches the next tenant: %v", err)
	}
	if _, err := hold(walked); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("old tenancy holds the next tenant open: %v", err)
	}
	if _, err := ref.Conv(); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("old reference reaches the next tenant: %v", err)
	}
	ref.Release()
	data.Release()
	if c, err := next.Conv(); err != nil || c != cur || cur.hung.Load() != 0 {
		t.Errorf("a second release of old references disturbed the next tenant: %v, %v, hung %d", c, err, cur.hung.Load())
	}
	next.Release()
	if cur.hung.Load() != 1 || old.hung.Load() != 1 {
		t.Errorf("hangups: old %d, next %d; want one each", old.hung.Load(), cur.hung.Load())
	}
}

func TestTableCtlFile(t *testing.T) {
	tb := newTestTable(7, 1)
	ref, c := mustClaim(t, tb)
	h := ref.Ctl(func(c *tconv, msg string) error {
		if msg == "bad" {
			return vfs.ErrBadCtl
		}
		c.cmds = append(c.cmds, msg)
		return nil
	})
	buf := make([]byte, 8)
	if n, err := h.Read(buf, 0); err != nil || string(buf[:n]) != "7" {
		t.Errorf("ctl read %q, %v", buf[:n], err)
	}
	if _, err := h.Write([]byte("connect 2048\n"), 0); err != nil {
		t.Error(err)
	}
	if _, err := h.Write([]byte("bad"), 0); !vfs.SameError(err, vfs.ErrBadCtl) {
		t.Errorf("refused command: %v", err)
	}
	if len(c.cmds) != 1 || c.cmds[0] != "connect 2048" {
		t.Errorf("conversation saw %q", c.cmds)
	}
	h.Close()
	if c.hung.Load() != 1 {
		t.Error("closing the only ctl file did not hang up")
	}
	if _, err := h.Write([]byte("connect 1"), 0); !vfs.SameError(err, vfs.ErrHungup) {
		t.Errorf("command through a closed ctl file: %v, want %v", err, vfs.ErrHungup)
	}
	h.Close()
	if c.hung.Load() != 1 || len(c.cmds) != 1 {
		t.Errorf("closed ctl file still reaches the conversation: hung %d, cmds %q", c.hung.Load(), c.cmds)
	}
}

// TestTableChurn runs claim/open/release cycles from several goroutines
// on a table smaller than the crowd, closing every handle twice. Each
// tenancy must be exclusive while it lasts and hang up exactly once.
func TestTableChurn(t *testing.T) {
	const workers, cycles, slots = 8, 500, 3
	tb := newTestTable(0, slots)
	var all sync.Map
	var opened, refused atomic.Int64
	var held [slots]atomic.Bool
	root := tb.Root("dev", nil, testDirs)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range cycles {
				ref, err := tb.Claim(func(id int) (*tconv, error) {
					c := &tconv{id: id}
					all.Store(c, true)
					return c, nil
				})
				if err != nil {
					refused.Add(1)
					continue
				}
				opened.Add(1)
				c, _ := ref.Conv()
				if !held[c.id].CompareAndSwap(false, true) {
					t.Errorf("slot %d claimed while held", c.id)
				}
				// A second file of the conversation, by walking.
				var file vfs.Handle
				if n, err := root.Lookup(strconv.Itoa(c.id)); err == nil {
					if n, err = n.Walk("ctl"); err == nil {
						file, _ = n.Open(vfs.ORDWR)
					}
				}
				root.List()
				if c.hung.Load() != 0 {
					t.Error("hung up while held")
				}
				held[c.id].Store(false)
				ref.Release()
				ref.Release()
				if file != nil {
					file.Close()
					file.Close()
				}
			}
		}()
	}
	wg.Wait()
	var n int64
	all.Range(func(k, _ any) bool {
		n++
		if h := k.(*tconv).hung.Load(); h != 1 {
			t.Errorf("conversation %d hung up %d times", k.(*tconv).id, h)
		}
		return true
	})
	if n != opened.Load() || opened.Load()+refused.Load() != workers*cycles {
		t.Errorf("%d conversations for %d claims (%d refused)", n, opened.Load(), refused.Load())
	}
	if got := names(t, root); got != "clone" {
		t.Errorf("after the churn the device lists %q", got)
	}
}

// TestConvDirFiles: a conversation directory lists its files in the
// device's order, leaves out a file the conversation does not have,
// and walks only to the files it lists.
func TestConvDirFiles(t *testing.T) {
	tb := newTestTable(0, 2)
	mustClaim(t, tb)
	if _, err := tb.Claim(func(id int) (*tconv, error) { return &tconv{id: id, gate: make(chan struct{})}, nil }); err != nil {
		t.Fatal(err)
	}
	root := tb.Root("dev", nil, testDirs)
	for name, want := range map[string]string{"0": "ctl id", "1": "ctl id gate"} {
		dir, err := root.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := dir.Open(vfs.OREAD)
		if err != nil {
			t.Fatal(err)
		}
		ents, err := h.(vfs.DirReader).ReadDir()
		var got []string
		for _, e := range ents {
			got = append(got, e.Name)
			if e.IsDir() || e.Uid != "u" {
				t.Errorf("%s/%s stats as %+v", name, e.Name, e)
			}
		}
		if err != nil || strings.Join(got, " ") != want {
			t.Errorf("%s lists %q, %v; want %q", name, got, err, want)
		}
		if _, err := dir.Open(vfs.OWRITE); !vfs.SameError(err, vfs.ErrIsDir) {
			t.Errorf("%s opened for writing: %v", name, err)
		}
	}
	dir, _ := root.Lookup("0")
	for _, name := range []string{"gate", "missing", ""} {
		if _, err := dir.Walk(name); !vfs.SameError(err, vfs.ErrNotExist) {
			t.Errorf("walk %s = %v, want %v", name, err, vfs.ErrNotExist)
		}
	}
	id, err := dir.Walk("id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := id.Walk("x"); !vfs.SameError(err, vfs.ErrNotDir) {
		t.Errorf("walk under a file = %v, want %v", err, vfs.ErrNotDir)
	}
	if _, err := id.Open(vfs.OWRITE); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("text file opened for writing: %v", err)
	}
	h, err := id.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := h.Read(buf, 0); err != nil || string(buf[:n]) != "conv 0" {
		t.Errorf("id reads %q, %v", buf[:n], err)
	}
	if _, err := h.Write([]byte("x"), 0); !vfs.SameError(err, vfs.ErrPerm) {
		t.Errorf("text file written: %v", err)
	}
}

// TestConvDirQids: a conversation's directory and files keep their
// qids for the whole tenancy, however they are reached, and the slot's
// next tenancy gets new ones.
func TestConvDirQids(t *testing.T) {
	tb := newTestTable(0, 1)
	root := tb.Root("dev", nil, testDirs)
	qids := func() []uint64 {
		dir, err := root.Lookup("0")
		if err != nil {
			t.Fatal(err)
		}
		d, _ := dir.Stat()
		paths := []uint64{d.Qid.Path}
		for _, name := range []string{"ctl", "id"} {
			f, err := dir.Walk(name)
			if err != nil {
				t.Fatal(err)
			}
			d, _ := f.Stat()
			paths = append(paths, d.Qid.Path)
		}
		ents, _ := root.List()
		return append(paths, ents[len(ents)-1].Qid.Path)
	}
	ref, _ := mustClaim(t, tb)
	first := qids()
	if again := qids(); !slices.Equal(first, again) {
		t.Errorf("walked twice in one tenancy: qids %v, then %v", first, again)
	}
	if first[0] != first[3] {
		t.Errorf("the directory's qid %d lists as %d", first[0], first[3])
	}
	ref.Release()
	ref, _ = mustClaim(t, tb)
	defer ref.Release()
	for i, p := range qids() {
		if slices.Contains(first, p) {
			t.Errorf("the next tenancy reuses qid %d (file %d)", p, i)
		}
	}
}

// TestAllocsConvWalk: walking to a conversation's directory and one of
// its files again allocates nothing — the table generated the directory
// on the tenancy's first walk. check.sh runs this without the race
// detector (whose instrumentation allocates).
func TestAllocsConvWalk(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates; gated in check.sh without -race")
	}
	tb := newTestTable(0, 1)
	ref, _ := mustClaim(t, tb)
	defer ref.Release()
	root := tb.Root("dev", nil, testDirs)
	if n := testing.AllocsPerRun(1000, func() {
		dir, err := root.Walk("0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Walk("ctl"); err != nil {
			t.Fatal(err)
		}
		dir.Stat()
	}); n != 0 {
		t.Errorf("a repeat walk allocates %.1f objects, want 0", n)
	}
}
