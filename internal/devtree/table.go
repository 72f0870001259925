package devtree

import (
	"strconv"

	"repro/internal/vclock"
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

	mu    vclock.Lock
	slots []*slot[C] // slots[i] is conversation first+i; grows on demand up to n
}

// slot is one numbered conversation directory. Everything but id is
// guarded by Table.mu.
type slot[C any] struct {
	id   int
	gen  uint64 // tenancies begun
	refs int    // open files and kernel users of the current tenancy; 0 when free
	conv C
	dir  []convNode[C] // the current tenancy's directory, once walked
}

// NewTable returns a table on ck of n conversations numbered from
// first. hangup ends a conversation; the table calls it, with the table
// unlocked, when the conversation's last reference is released.
func NewTable[C any](ck vclock.Clock, first, n int, hangup func(C)) *Table[C] {
	t := &Table[C]{first: first, n: n, hangup: hangup}
	t.mu.Init(ck)
	return t
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

// ConvFile is one file of every conversation directory of a device:
// its name and permissions, and either the text it reads as or the
// device's kind for it, which the table hands back to the device's open
// (as Plan 9's devgen yields a qid whose type the device switches on).
// Has, if set, says whether a conversation has the file at all.
type ConvFile[C any] struct {
	Name string
	Perm uint32
	Kind int
	// Text, if set, makes the file read-only text rendered from the
	// conversation (see Tenancy.text); the device's open never sees it.
	Text func(C) string
	Has  func(C) bool
}

// ConvDirs is how a device's conversation directories are generated:
// their files, in the order a listing shows them, and the open of every
// file that is not Text. Open gets the tenancy the walk found, the
// file's kind and the open mode.
type ConvDirs[C any] struct {
	Owner string
	Files []ConvFile[C]
	Open  func(n Tenancy[C], kind, mode int) (vfs.Handle, error)
}

// Root returns the device's top directory: the clone file, the
// device's own files (extra, such as stats), and a numbered directory
// per live conversation, listed in that order. clone is the clone
// file's open: it claims a conversation and returns its ctl file. A
// walk to a number finds the directory dirs generates for the tenancy
// in that slot: built once per tenancy, on its first walk or listing,
// as one node array that later walks return pointers into.
func (t *Table[C]) Root(name string, clone func(mode int) (vfs.Handle, error),
	dirs *ConvDirs[C], extra ...*FileNode) *DirNode {
	files := append([]*FileNode{{Entry: MkFile("clone", dirs.Owner, 0666), OpenFn: clone}}, extra...)
	return &DirNode{
		Entry: MkDir(name, dirs.Owner, 0555),
		List: func() ([]vfs.Dir, error) {
			t.mu.Lock()
			ents := make([]vfs.Dir, 0, len(files)+len(t.slots))
			for _, f := range files {
				ents = append(ents, f.Entry)
			}
			for _, s := range t.slots {
				if s.refs > 0 {
					d, _ := t.dirLocked(s, dirs).Stat()
					ents = append(ents, d)
				}
			}
			t.mu.Unlock()
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
			defer t.mu.Unlock()
			if i := id - t.first; i < len(t.slots) && t.slots[i].refs > 0 {
				return t.dirLocked(t.slots[i], dirs), nil
			}
			return nil, vfs.ErrNotExist
		},
	}
}

// dirLocked returns the directory of s's current tenancy, building its
// node array if this tenancy has none yet: the directory first, then
// its files, each with the qid it keeps for the tenancy. Callers hold
// t.mu.
func (t *Table[C]) dirLocked(s *slot[C], dirs *ConvDirs[C]) *convNode[C] {
	if len(s.dir) > 0 && s.dir[0].dirs == dirs {
		return &s.dir[0]
	}
	nodes := make([]convNode[C], 1+len(dirs.Files))
	n := Tenancy[C]{t: t, s: s, gen: s.gen}
	for i := range nodes {
		nodes[i] = convNode[C]{dir: nodes, n: n, dirs: dirs, path: vfs.NewQidPath()}
		if i > 0 {
			nodes[i].f = &dirs.Files[i-1]
		}
	}
	s.dir = nodes
	return &nodes[0]
}

// convNode is a conversation directory (f nil) or one of its files,
// for one tenancy.
type convNode[C any] struct {
	dir  []convNode[C] // the directory, then its files: one allocation
	n    Tenancy[C]
	dirs *ConvDirs[C]
	path uint64 // the qid's path, the same for every walk of the tenancy
	f    *ConvFile[C]
}

var _ vfs.Node = (*convNode[any])(nil)

// Stat implements vfs.Node.
func (x *convNode[C]) Stat() (vfs.Dir, error) {
	if x.f == nil {
		return entry(strconv.Itoa(x.n.s.id), x.dirs.Owner, vfs.DMDIR|0555, x.path), nil
	}
	return entry(x.f.Name, x.dirs.Owner, x.f.Perm, x.path), nil
}

// Walk implements vfs.Node: a file of the directory, if the
// conversation has it.
func (x *convNode[C]) Walk(name string) (vfs.Node, error) {
	if x.f != nil {
		return nil, vfs.ErrNotDir
	}
	for i := 1; i < len(x.dir); i++ {
		if f := &x.dir[i]; f.f.Name == name && f.present() {
			return f, nil
		}
	}
	return nil, vfs.ErrNotExist
}

// present reports whether the tenancy's conversation has the file.
func (x *convNode[C]) present() bool {
	if x.f.Has == nil {
		return true
	}
	c, err := x.n.Conv()
	return err == nil && x.f.Has(c)
}

// Open implements vfs.Node.
func (x *convNode[C]) Open(mode int) (vfs.Handle, error) {
	switch {
	case x.f == nil:
		if vfs.AccessMode(mode) != vfs.OREAD {
			return nil, vfs.ErrIsDir
		}
		return &dirHandle{list: x.list}, nil
	case x.f.Text != nil:
		return x.n.text(mode, x.f.Text)
	}
	return x.dirs.Open(x.n, x.f.Kind, mode)
}

// list lists the directory: the files the conversation has, in order.
func (x *convNode[C]) list() ([]vfs.Dir, error) {
	ents := make([]vfs.Dir, 0, len(x.dir)-1)
	for i := 1; i < len(x.dir); i++ {
		if f := &x.dir[i]; f.present() {
			d, _ := f.Stat()
			ents = append(ents, d)
		}
	}
	return ents, nil
}

// Tenancy names one occupancy of a slot — the slot and the generation
// it was claimed at — without holding it open. A conversation
// directory's nodes are generated for one, so a node walked to before
// the slot changed hands finds its own conversation gone rather than
// the next one.
type Tenancy[C any] struct {
	t   *Table[C]
	s   *slot[C]
	gen uint64
}

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

// Hold takes a reference to the tenancy, for an open ctl or data file
// to keep. It fails with ErrHungup once the tenancy has ended: a dead
// conversation is not revived, and the slot's next tenant is not held
// open by a stranger.
func (n Tenancy[C]) Hold() (Ref[C], error) {
	n.t.mu.Lock()
	defer n.t.mu.Unlock()
	if !n.live() {
		return Ref[C]{}, vfs.ErrHungup
	}
	n.s.refs++
	return Ref[C]{t: n.t, s: n.s}, nil
}

// text opens a read-only file of the tenancy that renders its
// conversation with text — status, local, remote, type — on the first
// read and on each read from offset 0, and reads as ErrHungup once the
// tenancy has ended. It holds nothing open.
func (n Tenancy[C]) text(mode int, text func(C) string) (vfs.Handle, error) {
	if vfs.ModeWritable(mode) {
		return nil, vfs.ErrPerm
	}
	return &convText[C]{n: n, text: text}, nil
}

type convText[C any] struct {
	n    Tenancy[C]
	text func(C) string
	snap snapshot
}

func (h *convText[C]) Read(p []byte, off int64) (int, error) {
	return h.snap.read(p, off, h.render)
}

func (h *convText[C]) render() (string, error) {
	c, err := h.n.Conv()
	if err != nil {
		return "", err
	}
	return h.text(c), nil
}

func (h *convText[C]) Write(p []byte, off int64) (int, error) { return 0, vfs.ErrPerm }

func (h *convText[C]) Close() error { return nil }

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
			s.dir = nil
		}
	}
	r.t.mu.Unlock()
	if last {
		r.t.hangup(conv)
	}
}

// Ctl returns the open ctl file of the conversation r holds, taking
// the reference over: reading it yields the conversation number, each
// write is one command (ctlCmd) for cmd, and closing it releases the
// reference.
func (r Ref[C]) Ctl(cmd func(c C, msg string) error) vfs.Handle {
	return &convCtl[C]{ref: r, id: r.s.id, cmd: cmd}
}

// convCtl is a conversation's open ctl file.
type convCtl[C any] struct {
	ref Ref[C]
	id  int
	cmd func(c C, msg string) error
}

func (h *convCtl[C]) Read(p []byte, off int64) (int, error) {
	return ReadAtString(p, off, strconv.Itoa(h.id))
}

func (h *convCtl[C]) Write(p []byte, off int64) (int, error) {
	c, err := h.ref.Conv()
	if err != nil {
		return 0, err
	}
	if err := h.cmd(c, ctlCmd(p)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (h *convCtl[C]) Close() error {
	h.ref.Release()
	return nil
}
