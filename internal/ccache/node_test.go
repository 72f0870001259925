package ccache

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/vfs"
)

// Extend the test backing with directory behavior, controllable stat
// failures, and failing reads, to reach the interposition layer's
// error and pass-through branches.

var errBacking = errors.New("backing tree says no")

func (n *memNode) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	child := newMemNode(nil)
	n.mu.Lock()
	if n.children == nil {
		n.children = make(map[string]*memNode)
	}
	n.children[name] = child
	n.mu.Unlock()
	return child, &memHandle{n: child}, nil
}

func (n *memNode) Remove() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.removed = true
	return nil
}

func (n *memNode) Wstat(d vfs.Dir) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.data = nil
	n.qid.Vers++
	return nil
}

func TestNodeInterposition(t *testing.T) {
	c := New(Config{FragSize: 4096})
	defer c.Release()
	dir := newMemNode(nil)
	dir.qid.Type = vfs.QTDIR
	wn := c.WrapNode(dir)

	// Create through the wrapped directory: the child's node and
	// handle both come back interposed.
	cn, ch, err := wn.(vfs.Creator).Create("f", 0664, vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cn.(cnode); !ok {
		t.Fatalf("created node is %T, want cnode", cn)
	}
	if _, ok := ch.(*chandle); !ok {
		t.Fatalf("created handle is %T, want caching handle", ch)
	}
	if _, err := ch.Write([]byte("created bytes"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := ch.Read(buf, 0); err != nil || string(buf[:n]) != "created bytes" {
		t.Fatalf("read through created handle: %q, %v", buf[:n], err)
	}
	ch.Close()

	// Walk revalidates through Stat and keeps the interposition.
	walked, err := wn.Walk("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := walked.(cnode); !ok {
		t.Fatalf("walked node is %T, want cnode", walked)
	}
	if _, err := walked.Stat(); err != nil {
		t.Fatal(err)
	}
	if _, err := wn.Walk("missing"); err == nil {
		t.Fatal("walk of missing child succeeded")
	}

	// Wstat can truncate, so it drops the file's fragments.
	if c.Stores.Load() == 0 {
		t.Fatal("create+read did not populate the cache")
	}
	if err := walked.(vfs.Wstater).Wstat(vfs.Dir{}); err != nil {
		t.Fatal(err)
	}
	misses := c.Misses.Load()
	h2, err := walked.Open(vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	h2.Read(buf, 0)
	h2.Close()
	if c.Misses.Load() == misses {
		t.Error("read after wstat served a stale fragment")
	}

	// Remove drops whatever is cached for the file.
	if err := walked.(vfs.Remover).Remove(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	left := len(c.files)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("%d files still cached after remove+wstat", left)
	}

	// A backing node without the mutating interfaces yields ErrPerm
	// through the wrapper, not a panic.
	un := c.WrapNode(unstableNode{newMemNode(nil)})
	if _, _, err := un.(vfs.Creator).Create("x", 0, 0); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("create on non-creator = %v", err)
	}
	if err := un.(vfs.Remover).Remove(); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("remove on non-remover = %v", err)
	}
	if err := un.(vfs.Wstater).Wstat(vfs.Dir{}); !errors.Is(err, vfs.ErrPerm) {
		t.Errorf("wstat on non-wstater = %v", err)
	}
}

func TestWrapHandleDeclines(t *testing.T) {
	c := New(Config{})
	defer c.Release()
	// A directory qid never caches, even with a Stable handle.
	dir := newMemNode([]byte("dirent bytes"))
	dir.qid.Type = vfs.QTDIR
	if h := c.wrapHandle(dir, &memHandle{n: dir}); h != nil {
		if _, ok := h.(*chandle); ok {
			t.Error("directory handle was wrapped for caching")
		}
	}
	// A failing stat declines too: without a qid there is no key.
	bad := newMemNode(nil)
	bad.statErr = errBacking
	if h := c.wrapHandle(bad, &memHandle{n: bad}); h != nil {
		if _, ok := h.(*chandle); ok {
			t.Error("stat-less handle was wrapped for caching")
		}
	}
}

func TestReadBlockEdges(t *testing.T) {
	c := New(Config{FragSize: 4096})
	defer c.Release()
	n := newMemNode([]byte("short tail"))
	h := openCached(t, c, n)
	defer h.Close()
	ch := h.(*chandle)

	// Nonsense requests decline rather than error.
	if b, _, err := ch.ReadBlock(0, 0); b != nil || err != nil {
		t.Errorf("count 0: block %v err %v", b, err)
	}
	if b, _, err := ch.ReadBlock(10, -1); b != nil || err != nil {
		t.Errorf("negative offset: block %v err %v", b, err)
	}
	// A read past EOF inside the short tail fragment serves an empty
	// answer from cache memory.
	b, data, err := ch.ReadBlock(10, 100)
	if err != nil || b == nil || len(data) != 0 {
		t.Fatalf("past-EOF read: block %v data %d err %v", b, len(data), err)
	}
	b.Free()

	// A failing backing read surfaces as an error, not a cached lie.
	bad := newMemNode(nil)
	bad.readErr = errBacking
	hb := openCached(t, c, bad)
	defer hb.Close()
	if _, _, err := hb.(*chandle).ReadBlock(10, 0); !errors.Is(err, errBacking) {
		t.Errorf("failing backing: %v", err)
	}
	if n, err := hb.Read(make([]byte, 10), 0); n != 0 || !errors.Is(err, errBacking) {
		t.Errorf("failing backing via copy path: %d, %v", n, err)
	}
}

func TestReadPartialThenError(t *testing.T) {
	const frag = 4096
	c := New(Config{FragSize: frag})
	defer c.Release()
	n := newMemNode(bytes.Repeat([]byte("z"), frag))
	h := openCached(t, c, n)
	defer h.Close()
	// Prime fragment 0, then make the backing fail: a multi-fragment
	// read returns the bytes it got, error suppressed until nothing
	// was read.
	if _, err := h.Read(make([]byte, frag), 0); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.readErr = errBacking
	n.mu.Unlock()
	got, err := h.Read(make([]byte, 2*frag), 0)
	if err != nil || got != frag {
		t.Errorf("partial read: %d, %v; want %d, nil", got, err, frag)
	}
}

func TestInsertRaceKeepsResident(t *testing.T) {
	c := New(Config{FragSize: 512})
	defer c.Release()
	fill := func(seed byte) *block.Block {
		b := block.Alloc(512, 0)
		for i := range b.Bytes() {
			b.Bytes()[i] = seed
		}
		return b
	}
	// Two fillers race the same fragment: the first one in stays, the
	// loser's block is freed and the resident's bytes are served.
	r1, d1 := c.insert(1, 0, 0, fill(0xAA))
	r2, d2 := c.insert(1, 0, 0, fill(0xBB))
	if d1[0] != 0xAA || d2[0] != 0xAA {
		t.Errorf("resident lost the race: %x then %x", d1[0], d2[0])
	}
	if c.Stores.Load() != 1 {
		t.Errorf("stores %d, want 1", c.Stores.Load())
	}
	r1.Free()
	r2.Free()
}

func TestInvalidateMissesAreQuiet(t *testing.T) {
	c := New(Config{FragSize: 512})
	defer c.Release()
	// Nothing cached: every invalidation entry point is a no-op.
	c.invalidateRange(99, 0, 100)
	c.invalidateRange(99, 0, 0)
	c.noteVersion(99, 7)
	c.drop(99)
	if c.Invalidations.Load() != 0 {
		t.Errorf("invalidations %d on an empty cache", c.Invalidations.Load())
	}
}

func TestStatsGroupRender(t *testing.T) {
	c := New(Config{FragSize: 4096})
	defer c.Release()
	n := newMemNode([]byte("statful"))
	h := openCached(t, c, n)
	h.Read(make([]byte, 16), 0)
	h.Close()
	text := c.StatsGroup().Render()
	for _, want := range []string{"cache-hits", "cache-misses", "cache-stores",
		"cache-evictions", "cache-invalidations", "cache-bytes: 4096"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats missing %q:\n%s", want, text)
		}
	}
}
