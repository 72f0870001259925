package ccache

import (
	"repro/internal/block"
	"repro/internal/vfs"
)

// cnode interposes the cache on one node of the served tree. Stats
// and opens revalidate (noteVersion); opens of stable plain files
// come back as caching handles; everything else passes through.
type cnode struct {
	c *Cache
	n vfs.Node
}

var (
	_ vfs.Node    = cnode{}
	_ vfs.Creator = cnode{}
	_ vfs.Remover = cnode{}
	_ vfs.Wstater = cnode{}
)

// Stat implements vfs.Node, revalidating the cache against the qid it
// returns. The 9P server stats after every walk (for the Rwalk qid),
// so walk, stat, and open all pass through here — the issue's
// "invalidated by qid.vers on walk/stat/open" in one place.
func (n cnode) Stat() (vfs.Dir, error) {
	d, err := n.n.Stat()
	if err != nil {
		return d, err
	}
	n.c.noteVersion(d.Qid.Path, d.Qid.Vers)
	return d, nil
}

// Walk implements vfs.Node, keeping the cache interposed on the
// walked-to node.
func (n cnode) Walk(name string) (vfs.Node, error) {
	child, err := n.n.Walk(name)
	if err != nil {
		return nil, err
	}
	return cnode{c: n.c, n: child}, nil
}

// Open implements vfs.Node. A stable plain file opens as a caching
// handle; directories and device files open straight through.
func (n cnode) Open(mode int) (vfs.Handle, error) {
	h, err := n.n.Open(mode)
	if err != nil {
		return nil, err
	}
	return n.c.wrapHandle(n.n, h), nil
}

// Create implements vfs.Creator; a fresh file's handle is cacheable
// like an opened one.
func (n cnode) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	cr, ok := n.n.(vfs.Creator)
	if !ok {
		return nil, nil, vfs.ErrPerm
	}
	child, h, err := cr.Create(name, perm, mode)
	if err != nil {
		return nil, nil, err
	}
	wrapped := cnode{c: n.c, n: child}
	return wrapped, n.c.wrapHandle(child, h), nil
}

// Remove implements vfs.Remover, dropping whatever the cache holds
// for the removed file.
func (n cnode) Remove() error {
	d, derr := n.n.Stat()
	rm, ok := n.n.(vfs.Remover)
	if !ok {
		return vfs.ErrPerm
	}
	if err := rm.Remove(); err != nil {
		return err
	}
	if derr == nil {
		n.c.drop(d.Qid.Path)
	}
	return nil
}

// Wstat implements vfs.Wstater. Attribute rewrite can truncate, so
// the file's fragments go.
func (n cnode) Wstat(d vfs.Dir) error {
	old, derr := n.n.Stat()
	w, ok := n.n.(vfs.Wstater)
	if !ok {
		return vfs.ErrPerm
	}
	if err := w.Wstat(d); err != nil {
		return err
	}
	if derr == nil {
		n.c.drop(old.Qid.Path)
	}
	return nil
}

// drop removes every fragment of path.
func (c *Cache) drop(path uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.files[path]; f != nil {
		c.dropFileLocked(f)
		delete(c.files, path)
	}
}

// wrapHandle returns a caching handle when h is a stable plain file,
// and h itself otherwise.
func (c *Cache) wrapHandle(n vfs.Node, h vfs.Handle) vfs.Handle {
	s, ok := h.(vfs.Stable)
	if !ok || !s.Stable() {
		return h
	}
	d, err := n.Stat()
	if err != nil || d.Qid.Type != vfs.QTFILE {
		return h
	}
	c.noteVersion(d.Qid.Path, d.Qid.Vers)
	return &chandle{c: c, h: h, path: d.Qid.Path, vers: d.Qid.Vers}
}

// chandle is an open caching handle over a stable plain file.
type chandle struct {
	c    *Cache
	h    vfs.Handle
	path uint64
	vers uint32
}

// ReadBlock serves a read as a referenced cache fragment — the
// zero-copy path the 9P server takes for its Rread. A request that
// does not land inside one fragment declines (nil block, nil error)
// and the server falls back to the copy path; the windowed mount
// driver's aligned MAXFDATA reads always land.
func (h *chandle) ReadBlock(count int, off int64) (*block.Block, []byte, error) {
	frag := int64(h.c.frag)
	if count <= 0 || off < 0 {
		return nil, nil, nil
	}
	fo := off - off%frag
	if off+int64(count) > fo+frag {
		return nil, nil, nil
	}
	b, data, err := h.fragment(fo)
	if err != nil || b == nil {
		return nil, nil, err
	}
	i := int(off - fo)
	if i >= len(data) {
		// Read at or past EOF within a short tail fragment: an
		// empty Rread, served without touching the backing tree.
		return b, nil, nil
	}
	end := i + count
	if end > len(data) {
		end = len(data)
	}
	return b, data[i:end], nil
}

// fragment returns a referenced block holding the fragment at fo,
// filling it from the backing handle on a miss. A fragment at or past
// EOF comes back empty but real, so repeated EOF probes stay hits, and
// once a short fragment has shown where the file ends, every fragment
// past it is a hit on that one.
func (h *chandle) fragment(fo int64) (*block.Block, []byte, error) {
	if b, data := h.c.lookup(h.path, fo); b != nil {
		h.c.Hits.Add(1)
		return b, data, nil
	}
	h.c.Misses.Add(1)
	// Fill outside the cache lock: the backing read may be slow, and
	// concurrent misses on other fragments must not serialize behind
	// it. Two fillers racing on one fragment both read the backing;
	// insert keeps the first and frees the loser.
	b := block.Alloc(h.c.frag, 0)
	n, err := h.h.Read(b.Bytes(), fo)
	if err != nil {
		b.Free()
		return nil, nil, err
	}
	b.Trim(h.c.frag - n)
	// An empty fragment is cached like any other: when the file length
	// is an exact multiple of the fragment size, EOF is only
	// discoverable by reading one fragment past the end, and a
	// windowed client probes there on every transfer — a thousand
	// tenants' EOF probes must hit the cache, not re-read the backing
	// tree. It is the file's tail, as a short one is: the LRU bounds
	// it and a version move drops it, same as data fragments.
	ref, data := h.c.insert(h.path, h.vers, fo, b)
	return ref, data, nil
}

// Read implements vfs.Handle through the cache: each touched fragment
// is served resident or filled, then copied into p. The copy path
// serves unaligned and straddling reads; the server's Rread fast path
// uses ReadBlock instead.
func (h *chandle) Read(p []byte, off int64) (int, error) {
	frag := int64(h.c.frag)
	total := 0
	for len(p) > 0 {
		fo := off - off%frag
		b, data, err := h.fragment(fo)
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		if b == nil {
			break
		}
		i := int(off - fo)
		if i >= len(data) {
			b.Free()
			break
		}
		n := copy(p, data[i:])
		b.Free()
		total += n
		off += int64(n)
		p = p[n:]
		if i+n < h.c.frag {
			// Short fragment: end of file.
			break
		}
	}
	return total, nil
}

// Write implements vfs.Handle: write-through. The backing tree takes
// the bytes; the fragments they overlap are dropped so no stale read
// survives the write.
func (h *chandle) Write(p []byte, off int64) (int, error) {
	n, err := h.h.Write(p, off)
	if n > 0 {
		h.c.invalidateRange(h.path, off, int64(n))
	}
	return n, err
}

// Close implements vfs.Handle; the cache keeps the file's fragments
// for the next tenant.
func (h *chandle) Close() error { return h.h.Close() }
