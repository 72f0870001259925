// Package ccache is the gateway's cfs: a write-through read cache
// interposed between an export and its backing tree, in the style of
// the Plan 9 caching file system. Data is held in pooled, refcounted
// blocks at fragment granularity and keyed by (qid.path, offset);
// qid.vers is the freshness token — every open and stat revalidates,
// and a version move drops the file's fragments (the cfs rule:
// consistency is checked on open, not on every read). Writes go
// through to the backing tree and invalidate the fragments they
// overlap.
//
// Because fragments are refcounted blocks, a cached fragment serves
// any number of concurrent reads zero-copy: each reply takes a
// block.Ref and drops it after marshaling, so one tenant's 8K read
// and a thousand others' cost the same single fill of the backing
// tree.
//
// Only handles that declare vfs.Stable are cached. Live device files
// — stream data files, ctl files, synthesized stats — never are:
// their reads consume or compute, and caching them would corrupt the
// conversation. That is what lets the same cache sit under a gateway
// exporting /net.
package ccache

import (
	"sync"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Defaults.
const (
	// DefaultFragSize is the fragment granularity; exportfs passes the
	// 9P MAXFDATA so a windowed client's aligned reads hit whole
	// fragments.
	DefaultFragSize = 8192
	// DefaultMaxBytes bounds the cache when the config doesn't.
	DefaultMaxBytes = 4 << 20
)

// Config sizes a cache.
type Config struct {
	// MaxBytes bounds resident fragment bytes; 0 means
	// DefaultMaxBytes.
	MaxBytes int64
	// FragSize is the fragment granularity; 0 means DefaultFragSize.
	FragSize int
}

// Cache is one gateway's shared read cache. All methods are safe for
// concurrent use; eviction is strict LRU over fragments, so identical
// request sequences leave identical cache states (virtual-time storms
// stay deterministic).
type Cache struct {
	frag int
	max  int64

	mu       sync.Mutex
	files    map[uint64]*cfile
	lru      fragList
	size     int64
	released bool // Release ran: nothing is stored any more

	// Counters for the stats file.
	Hits          obs.Counter // reads served from a resident fragment
	Misses        obs.Counter // reads that had to fill from backing
	Stores        obs.Counter // fragments inserted
	Evictions     obs.Counter // fragments dropped by the byte bound
	Invalidations obs.Counter // fragments dropped by writes or version moves
}

// cfile is one cached file: its fragments, and the qid.vers they were
// valid for.
type cfile struct {
	path  uint64
	vers  uint32
	frags map[int64]*cfrag
}

// cfrag is one resident fragment. b holds the cache's own reference;
// readers take their own with Ref, so an evicted fragment's bytes
// survive until the last reply has marshaled.
type cfrag struct {
	f          *cfile
	off        int64
	b          *block.Block
	prev, next *cfrag
}

// fragList is the LRU list: most recently used at the back, a
// sentinel-free intrusive list.
type fragList struct {
	head, tail *cfrag
}

func (l *fragList) pushBack(fr *cfrag) {
	fr.prev, fr.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = fr
	} else {
		l.head = fr
	}
	l.tail = fr
}

func (l *fragList) remove(fr *cfrag) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		l.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		l.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.FragSize <= 0 {
		cfg.FragSize = DefaultFragSize
	}
	return &Cache{
		frag:  cfg.FragSize,
		max:   cfg.MaxBytes,
		files: make(map[uint64]*cfile),
	}
}

// Release hands the cache's residency back: every fragment's block
// goes back to the pool (a reader still holding a reference keeps its
// bytes until it frees them). Whoever owns the cache calls it at
// teardown; a released cache stores nothing, and reads through it fill
// from the backing tree every time.
func (c *Cache) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.released = true
	for c.lru.head != nil {
		fr := c.lru.head
		c.lru.remove(fr)
		fr.b.Free()
	}
	c.files = map[uint64]*cfile{}
	c.size = 0
}

// StatsGroup returns the cache's counters as a renderable stats group.
func (c *Cache) StatsGroup() *obs.Group {
	g := &obs.Group{}
	g.AddCounter("cache-hits", &c.Hits)
	g.AddCounter("cache-misses", &c.Misses)
	g.AddCounter("cache-stores", &c.Stores)
	g.AddCounter("cache-evictions", &c.Evictions)
	g.AddCounter("cache-invalidations", &c.Invalidations)
	g.Add("cache-bytes", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.size
	})
	return g
}

// WrapNode interposes the cache on a served tree: the returned node
// walks, stats, and opens through n, revalidating the cache against
// every qid it sees, and opens of stable plain files come back as
// caching handles.
func (c *Cache) WrapNode(n vfs.Node) vfs.Node {
	return cnode{c: c, n: n}
}

// noteVersion is the cfs invalidation rule: entry points that learn a
// file's current qid (walk via the server's stat, stat, open) report
// it here, and a version move drops every fragment cached under the
// old one.
func (c *Cache) noteVersion(path uint64, vers uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.files[path]
	if f == nil {
		return
	}
	if f.vers != vers {
		c.dropFileLocked(f)
		f.vers = vers
	}
}

// dropFileLocked frees every fragment of f. Callers hold c.mu.
func (c *Cache) dropFileLocked(f *cfile) {
	for off, fr := range f.frags {
		c.lru.remove(fr)
		c.size -= int64(c.frag)
		c.Invalidations.Inc()
		fr.b.Free()
		delete(f.frags, off)
	}
}

// invalidateRange drops the fragments overlapping [off, off+n) — the
// write-through half of the protocol: the backing tree has the new
// bytes, the stale fragments must not serve another read.
func (c *Cache) invalidateRange(path uint64, off, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.files[path]
	if f == nil {
		return
	}
	first := off - off%int64(c.frag)
	for fo := first; fo < off+n; fo += int64(c.frag) {
		if fr := f.frags[fo]; fr != nil {
			c.lru.remove(fr)
			c.size -= int64(c.frag)
			c.Invalidations.Inc()
			fr.b.Free()
			delete(f.frags, fo)
		}
	}
}

// lookup returns a referenced block and window for the fragment at
// fo, or nil on a miss. The ref is the caller's to Free.
func (c *Cache) lookup(path uint64, fo int64) (*block.Block, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.files[path]
	if f == nil {
		return nil, nil
	}
	fr := f.frags[fo]
	if fr == nil {
		return nil, nil
	}
	c.lru.remove(fr)
	c.lru.pushBack(fr)
	return fr.b.Ref(), fr.b.Bytes()
}

// insert stores b as the fragment at (path, fo), taking ownership of
// the caller's reference; it returns a separate reference and window
// for the caller to serve from. If a concurrent filler won the race,
// the newcomer is freed and the resident fragment served instead —
// last fill does not clobber the LRU position of a fragment already
// hot. A released cache hands b straight back.
func (c *Cache) insert(path uint64, vers uint32, fo int64, b *block.Block) (*block.Block, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return b, b.Bytes()
	}
	f := c.files[path]
	if f == nil {
		f = &cfile{path: path, vers: vers, frags: make(map[int64]*cfrag)}
		c.files[path] = f
	}
	if fr := f.frags[fo]; fr != nil {
		b.Free()
		return fr.b.Ref(), fr.b.Bytes()
	}
	fr := &cfrag{f: f, off: fo, b: b}
	f.frags[fo] = fr
	c.lru.pushBack(fr)
	c.size += int64(c.frag)
	c.Stores.Inc()
	for c.size > c.max && c.lru.head != nil && c.lru.head != fr {
		victim := c.lru.head
		c.lru.remove(victim)
		c.size -= int64(c.frag)
		c.Evictions.Inc()
		victim.b.Free()
		delete(victim.f.frags, victim.off)
		if len(victim.f.frags) == 0 {
			delete(c.files, victim.f.path)
		}
	}
	return fr.b.Ref(), fr.b.Bytes()
}
