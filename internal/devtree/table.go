package devtree

import (
	"strconv"
	"sync"

	"repro/internal/vfs"
)

// Table is the conversation table behind the two-level tree the paper
// describes twice, for the Ethernet driver (§2.2) and for the protocol
// devices (§2.3): "a clone file and a directory for each connection
// numbered 0 to n". It holds a bounded run of numbered slots, hands
// out the lowest free one, counts the open files of each conversation,
// and serves the device's top directory. C is what the device keeps
// per conversation.
//
// A slot is recycled when the last file of its conversation closes, so
// a slot number does not identify a conversation. Each claim starts a
// new tenancy, and whatever outlives a tenancy — a handle that was
// already closed, a directory walked to earlier — names the tenancy, not
// the slot: it gets ErrHungup, and can neither reach nor release the
// conversation that holds the slot now.
type Table[C any] struct {
	first, n int
	hangup   func(C)

	mu    sync.Mutex
	slots []*slot[C] // slots[i] is conversation first+i; grows on demand up to n
}

// slot is one numbered conversation directory. Everything but id is
// guarded by Table.mu.
type slot[C any] struct {
	id   int
	gen  uint64 // tenancies begun
	refs int    // open files and kernel users of the current tenancy; 0 when free
	conv C
}

// NewTable returns a table of n conversations numbered from first.
// hangup ends a conversation; the table calls it, with the table
// unlocked, when the conversation's last reference is released.
func NewTable[C any](first, n int, hangup func(C)) *Table[C] {
	return &Table[C]{first: first, n: n, hangup: hangup}
}

// Claim starts a tenancy in the lowest-numbered free slot and returns
// its first reference. open supplies the conversation for the slot's
// number; it runs only once a slot is found, so a full table
// (ErrInUse) costs the device nothing, and if it fails the slot stays
// free. open runs with the table locked and must not block. Claim
// itself never ends a conversation: a caller holding one that found no
// slot hangs it up after Claim returns.
func (t *Table[C]) Claim(open func(id int) (C, error)) (Ref[C], error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s *slot[C]
	for _, f := range t.slots {
		if f.refs == 0 {
			s = f
			break
		}
	}
	if s == nil {
		if len(t.slots) == t.n {
			return Ref[C]{}, vfs.ErrInUse
		}
		s = &slot[C]{id: t.first + len(t.slots)}
		t.slots = append(t.slots, s)
	}
	conv, err := open(s.id)
	if err != nil {
		return Ref[C]{}, err
	}
	s.gen++
	s.refs = 1
	s.conv = conv
	return Ref[C]{t: t, s: s}, nil
}

// Each calls fn for every live conversation in ascending id order. It
// walks a snapshot, so fn runs with the table unlocked.
func (t *Table[C]) Each(fn func(id int, c C)) {
	type entry struct {
		id   int
		conv C
	}
	t.mu.Lock()
	live := make([]entry, 0, len(t.slots))
	for _, s := range t.slots {
		if s.refs > 0 {
			live = append(live, entry{s.id, s.conv})
		}
	}
	t.mu.Unlock()
	for _, e := range live {
		fn(e.id, e.conv)
	}
}

// Root returns the device's top directory: the clone file, the
// device's own files (extra, such as stats), and a numbered directory
// per live conversation, listed in that order. clone is the clone
// file's open: it claims a conversation and returns its ctl file. dir
// builds the directory of the tenancy a walk to a number finds.
func (t *Table[C]) Root(name, owner string, clone func(mode int) (vfs.Handle, error),
	dir func(Tenancy[C]) vfs.Node, extra ...*FileNode) *DirNode {
	files := append([]*FileNode{{Entry: MkFile("clone", owner, 0666), OpenFn: clone}}, extra...)
	return &DirNode{
		Entry: MkDir(name, owner, 0555),
		List: func() ([]vfs.Dir, error) {
			ents := make([]vfs.Dir, 0, len(files))
			for _, f := range files {
				ents = append(ents, f.Entry)
			}
			t.Each(func(id int, _ C) {
				ents = append(ents, MkDir(strconv.Itoa(id), owner, 0555))
			})
			return ents, nil
		},
		Lookup: func(name string) (vfs.Node, error) {
			for _, f := range files {
				if f.Entry.Name == name {
					return f, nil
				}
			}
			id, err := strconv.Atoi(name)
			if err != nil || id < t.first {
				return nil, vfs.ErrNotExist
			}
			t.mu.Lock()
			var n Tenancy[C]
			if i := id - t.first; i < len(t.slots) && t.slots[i].refs > 0 {
				n = Tenancy[C]{t: t, s: t.slots[i], gen: t.slots[i].gen}
			}
			t.mu.Unlock()
			if n.s == nil {
				return nil, vfs.ErrNotExist
			}
			return dir(n), nil
		},
	}
}

// Tenancy names one occupancy of a slot — the slot and the generation
// it was claimed at — without holding it open. The files of a
// conversation directory are built on one, so a node walked to before
// the slot changed hands finds its own conversation gone rather than
// the next one.
type Tenancy[C any] struct {
	t   *Table[C]
	s   *slot[C]
	gen uint64
}

// ID returns the conversation number.
func (n Tenancy[C]) ID() int { return n.s.id }

// live reports whether the tenancy is still running. Callers hold
// Table.mu.
func (n Tenancy[C]) live() bool { return n.s.gen == n.gen && n.s.refs > 0 }

// Conv returns the tenancy's conversation, or ErrHungup once its last
// reference has been released.
func (n Tenancy[C]) Conv() (c C, err error) {
	n.t.mu.Lock()
	defer n.t.mu.Unlock()
	if !n.live() {
		return c, vfs.ErrHungup
	}
	return n.s.conv, nil
}

// File returns a file of the conversation directory whose every open
// takes a reference to the tenancy and hands it to open for the handle
// to keep — the ctl and data files. Opening it fails with ErrHungup
// once the tenancy has ended: a dead conversation is not revived, and
// the slot's next tenant is not held open by a stranger.
func (n Tenancy[C]) File(entry vfs.Dir, open func(Ref[C]) vfs.Handle) *FileNode {
	return &FileNode{Entry: entry, OpenFn: func(int) (vfs.Handle, error) {
		n.t.mu.Lock()
		if !n.live() {
			n.t.mu.Unlock()
			return nil, vfs.ErrHungup
		}
		n.s.refs++
		n.t.mu.Unlock()
		return open(Ref[C]{t: n.t, s: n.s}), nil
	}}
}

// Text returns a read-only file of the conversation directory that
// renders the conversation — status, local, remote, type — and reads
// as ErrHungup once the tenancy has ended. It holds nothing open.
func (n Tenancy[C]) Text(entry vfs.Dir, text func(C) string) *FileNode {
	return TextFile(entry, func() (string, error) {
		c, err := n.Conv()
		if err != nil {
			return "", err
		}
		return text(c), nil
	})
}

// Ref is one counted reference to a tenancy: what an open ctl or data
// file, or a kernel user of the conversation, holds. It is a value
// meant to live inside its holder, and must not be copied once in use.
// The zero Ref is released.
type Ref[C any] struct {
	t *Table[C]
	s *slot[C] // nil once released; guarded by t.mu
}

// Conv returns the conversation the reference holds open, or ErrHungup
// if the reference has been released — whoever holds the slot by then.
func (r *Ref[C]) Conv() (c C, err error) {
	if r.t == nil {
		return c, vfs.ErrHungup
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.s == nil {
		return c, vfs.ErrHungup
	}
	return r.s.conv, nil
}

// Release drops the reference; releasing it again does nothing. The
// last release of a tenancy frees the slot and then hangs the
// conversation up with the table unlocked — a hangup can park on the
// wire, and the device must stay walkable meanwhile.
func (r *Ref[C]) Release() {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	s := r.s
	r.s = nil
	last := false
	var conv C
	if s != nil {
		s.refs--
		if last = s.refs == 0; last {
			conv, s.conv = s.conv, conv
		}
	}
	r.t.mu.Unlock()
	if last {
		r.t.hangup(conv)
	}
}

// Ctl returns the open ctl file of the conversation r holds, taking
// the reference over: reading it yields the conversation number, each
// write is one command for cmd, and closing it releases the reference.
func (r Ref[C]) Ctl(cmd func(c C, msg string) error) vfs.Handle {
	h := &convCtl[C]{ref: r}
	id := strconv.Itoa(r.s.id)
	h.Get = func() (string, error) { return id, nil }
	h.Cmd = func(msg string) error {
		c, err := h.ref.Conv()
		if err != nil {
			return err
		}
		return cmd(c, msg)
	}
	h.OnEnd = h.ref.Release
	return h
}

type convCtl[C any] struct {
	CtlHandle
	ref Ref[C]
}
