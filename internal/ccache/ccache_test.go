package ccache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// memNode is a controllable backing file: stable contents, a version
// that moves on write, and a counter of backing reads so tests can
// prove a hit never touched the tree.
type memNode struct {
	mu       sync.Mutex
	data     []byte
	qid      vfs.Qid
	children map[string]*memNode
	statErr  error // when set, Stat fails
	readErr  error // when set, backing reads fail
	removed  bool

	reads atomic.Int64
}

func newMemNode(data []byte) *memNode {
	return &memNode{data: data, qid: vfs.Qid{Path: vfs.NewQidPath(), Type: vfs.QTFILE}}
}

func (n *memNode) Stat() (vfs.Dir, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.statErr != nil {
		return vfs.Dir{}, n.statErr
	}
	return vfs.Dir{Name: "mem", Qid: n.qid, Mode: 0666, Length: int64(len(n.data))}, nil
}

func (n *memNode) Walk(name string) (vfs.Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c := n.children[name]; c != nil {
		return c, nil
	}
	return nil, vfs.ErrNotExist
}

func (n *memNode) Open(mode int) (vfs.Handle, error) { return &memHandle{n: n}, nil }

type memHandle struct{ n *memNode }

func (h *memHandle) Stable() bool { return true }

func (h *memHandle) Read(p []byte, off int64) (int, error) {
	h.n.reads.Add(1)
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	if h.n.readErr != nil {
		return 0, h.n.readErr
	}
	if off >= int64(len(h.n.data)) {
		return 0, nil
	}
	return copy(p, h.n.data[off:]), nil
}

func (h *memHandle) Write(p []byte, off int64) (int, error) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(h.n.data)) {
		grown := make([]byte, need)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	copy(h.n.data[off:], p)
	h.n.qid.Vers++
	return len(p), nil
}

func (h *memHandle) Close() error { return nil }

// pattern fills n bytes with a deterministic byte sequence.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// openCached wraps n in c and opens it as a caching handle.
func openCached(t *testing.T, c *Cache, n vfs.Node) vfs.Handle {
	t.Helper()
	h, err := c.WrapNode(n).Open(vfs.ORDWR)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, ok := h.(*chandle); !ok {
		t.Fatalf("open returned %T, want caching handle", h)
	}
	return h
}

func TestCacheHitSkipsBacking(t *testing.T) {
	c := New(Config{FragSize: 8192})
	defer c.Release()
	n := newMemNode(pattern(8192, 1))
	h1 := openCached(t, c, n)
	defer h1.Close()

	b1, data1, err := h1.(*chandle).ReadBlock(8192, 0)
	if err != nil || b1 == nil {
		t.Fatalf("first ReadBlock: %v block %v", err, b1)
	}
	if !bytes.Equal(data1, n.data) {
		t.Fatalf("first read returned wrong bytes")
	}
	b1.Free()
	backing := n.reads.Load()

	// A second tenant opens the same file; its read must come out of
	// the cache without a single backing read.
	h2 := openCached(t, c, n)
	defer h2.Close()
	b2, data2, err := h2.(*chandle).ReadBlock(8192, 0)
	if err != nil || b2 == nil {
		t.Fatalf("second ReadBlock: %v block %v", err, b2)
	}
	if !bytes.Equal(data2, n.data) {
		t.Fatalf("cached read returned wrong bytes")
	}
	b2.Free()
	if got := n.reads.Load(); got != backing {
		t.Fatalf("cache hit touched the backing tree: %d reads, want %d", got, backing)
	}
	if c.Hits.Load() != 1 || c.Misses.Load() != 1 {
		t.Fatalf("hits %d misses %d, want 1/1", c.Hits.Load(), c.Misses.Load())
	}
}

// TestReleaseFreesResidency: Release frees every resident fragment
// (the package's leak gate counts the blocks), and a released cache
// still serves reads, from the backing tree, storing nothing.
func TestReleaseFreesResidency(t *testing.T) {
	c := New(Config{FragSize: 8192})
	n := newMemNode(pattern(2*8192, 1))
	h := openCached(t, c, n)
	defer h.Close()
	for off := int64(0); off < 2*8192; off += 8192 {
		b, _, err := h.(*chandle).ReadBlock(8192, off)
		if err != nil {
			t.Fatal(err)
		}
		b.Free()
	}
	c.Release()
	if got := obs.ParseStats(c.StatsGroup().Render())["cache-bytes"]; got != 0 {
		t.Fatalf("cache-bytes %d after Release, want 0", got)
	}
	reads := n.reads.Load()
	b, data, err := h.(*chandle).ReadBlock(8192, 0)
	if err != nil || !bytes.Equal(data, n.data[:8192]) {
		t.Fatalf("read after Release: %v", err)
	}
	b.Free()
	if n.reads.Load() == reads || c.Stores.Load() != 2 {
		t.Fatalf("released cache: backing reads %d -> %d, stores %d; want a backing read and 2 stores",
			reads, n.reads.Load(), c.Stores.Load())
	}
}

func TestWriteThroughInvalidates(t *testing.T) {
	c := New(Config{FragSize: 8192})
	defer c.Release()
	n := newMemNode(pattern(8192, 1))
	h := openCached(t, c, n)
	defer h.Close()

	buf := make([]byte, 8192)
	if _, err := h.Read(buf, 0); err != nil {
		t.Fatalf("prime: %v", err)
	}
	if _, err := h.Write([]byte("fresh"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The backing tree has the bytes (write-through)...
	if !bytes.Equal(n.data[:5], []byte("fresh")) {
		t.Fatalf("write did not reach backing: %q", n.data[:5])
	}
	// ...and the overlapped fragment is gone, so the next read
	// re-fills and sees them.
	if c.Invalidations.Load() == 0 {
		t.Fatalf("write did not invalidate")
	}
	m, err := h.Read(buf, 0)
	if err != nil || m < 5 {
		t.Fatalf("reread: %d %v", m, err)
	}
	if !bytes.Equal(buf[:5], []byte("fresh")) {
		t.Fatalf("stale read after write-through: %q", buf[:5])
	}
}

func TestVersionMoveDropsFragments(t *testing.T) {
	c := New(Config{FragSize: 8192})
	defer c.Release()
	n := newMemNode(pattern(8192, 1))
	h := openCached(t, c, n)
	buf := make([]byte, 8192)
	h.Read(buf, 0)
	h.Close()

	// The file changes behind the cache's back (a local process on
	// the exporter): vers moves, contents change.
	n.mu.Lock()
	copy(n.data, []byte("behind your back"))
	n.qid.Vers++
	n.mu.Unlock()

	// The cfs rule: the next open revalidates and drops the stale
	// fragments.
	h2 := openCached(t, c, n)
	defer h2.Close()
	if c.Invalidations.Load() == 0 {
		t.Fatalf("version move did not invalidate")
	}
	m, err := h2.Read(buf, 0)
	if err != nil || m == 0 {
		t.Fatalf("reread: %d %v", m, err)
	}
	if !bytes.HasPrefix(buf[:m], []byte("behind your back")) {
		t.Fatalf("read served stale fragment: %q", buf[:16])
	}
}

func TestEvictionHoldsByteBound(t *testing.T) {
	const frag = 4096
	c := New(Config{FragSize: frag, MaxBytes: 2 * frag})
	defer c.Release()
	n := newMemNode(pattern(8*frag, 3))
	h := openCached(t, c, n)
	defer h.Close()

	buf := make([]byte, frag)
	for off := int64(0); off < 8*frag; off += frag {
		if _, err := h.Read(buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	if c.Evictions.Load() != 6 {
		t.Fatalf("evictions %d, want 6", c.Evictions.Load())
	}
	c.mu.Lock()
	size := c.size
	c.mu.Unlock()
	if size > 2*frag {
		t.Fatalf("resident %d bytes, bound %d", size, 2*frag)
	}
	// The evicted head fragment re-reads correctly (a fresh miss).
	misses := c.Misses.Load()
	if _, err := h.Read(buf, 0); err != nil {
		t.Fatalf("reread evicted: %v", err)
	}
	if !bytes.Equal(buf, pattern(8*frag, 3)[:frag]) {
		t.Fatalf("evicted fragment reread wrong bytes")
	}
	if c.Misses.Load() != misses+1 {
		t.Fatalf("reread of evicted fragment was not a miss")
	}
}

func TestRefcountedFanoutSurvivesInvalidation(t *testing.T) {
	c := New(Config{FragSize: 8192})
	defer c.Release()
	n := newMemNode(pattern(100, 5))
	h := openCached(t, c, n)
	defer h.Close()

	b, data, err := h.(*chandle).ReadBlock(100, 0)
	if err != nil || b == nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	want := append([]byte(nil), data...)
	// The fragment is dropped while the reply still references it;
	// the bytes must stay valid until the reference drops.
	c.drop(n.qid.Path)
	if !bytes.Equal(data, want) {
		t.Fatalf("evicted fragment mutated under a live reference")
	}
	b.Free()
}

func TestStraddlingAndUnalignedReads(t *testing.T) {
	const frag = 4096
	c := New(Config{FragSize: frag})
	defer c.Release()
	content := pattern(3*frag+123, 9)
	n := newMemNode(content)
	h := openCached(t, c, n)
	defer h.Close()

	// A straddling ReadBlock declines; the copy path serves it.
	if b, _, err := h.(*chandle).ReadBlock(frag, frag/2); err != nil || b != nil {
		t.Fatalf("straddling ReadBlock: block %v err %v, want decline", b, err)
	}
	buf := make([]byte, len(content)+500)
	m, err := h.Read(buf, 1)
	if err != nil {
		t.Fatalf("unaligned read: %v", err)
	}
	if !bytes.Equal(buf[:m], content[1:]) {
		t.Fatalf("unaligned read wrong: got %d bytes", m)
	}
	// Read at EOF is empty, not an error.
	if m, err := h.Read(buf, int64(len(content))); m != 0 || err != nil {
		t.Fatalf("read at EOF: %d %v", m, err)
	}
}

func TestUnstableHandleNotCached(t *testing.T) {
	c := New(Config{})
	defer c.Release()
	n := newMemNode(pattern(10, 1))
	// A device-style handle that does not declare vfs.Stable must
	// pass through unwrapped.
	h, err := c.WrapNode(unstableNode{n}).Open(vfs.OREAD)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, ok := h.(*chandle); ok {
		t.Fatalf("unstable handle was wrapped for caching")
	}
}

// unstableNode opens handles without the Stable marker.
type unstableNode struct{ n *memNode }

func (u unstableNode) Stat() (vfs.Dir, error)             { return u.n.Stat() }
func (u unstableNode) Walk(name string) (vfs.Node, error) { return u.n.Walk(name) }
func (u unstableNode) Open(mode int) (vfs.Handle, error) {
	return unstableHandle{&memHandle{n: u.n}}, nil
}

type unstableHandle struct{ h *memHandle }

func (u unstableHandle) Read(p []byte, off int64) (int, error)  { return u.h.Read(p, off) }
func (u unstableHandle) Write(p []byte, off int64) (int, error) { return u.h.Write(p, off) }
func (u unstableHandle) Close() error                           { return u.h.Close() }

func TestAllocsCacheHitReadBlock(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := New(Config{FragSize: 8192})
	defer c.Release()
	n := newMemNode(pattern(8192, 2))
	h := openCached(t, c, n)
	defer h.Close()
	ch := h.(*chandle)
	b, _, err := ch.ReadBlock(8192, 0)
	if err != nil || b == nil {
		t.Fatalf("prime: %v", err)
	}
	b.Free()
	// The hit path — the one a thousand tenants ride — is
	// allocation-free: lookup, Ref, sub-window.
	allocs := testing.AllocsPerRun(200, func() {
		b, _, err := ch.ReadBlock(8192, 0)
		if err != nil || b == nil {
			t.Fatalf("hit: %v", err)
		}
		b.Free()
	})
	if allocs != 0 {
		t.Fatalf("cache-hit ReadBlock allocates %.1f/op, want 0", allocs)
	}
}
