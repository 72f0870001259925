package ftp

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dialer"
	"repro/internal/ns"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// FS is ftpfs: a file system backed by an FTP control connection,
// mountable at /n/ftp. Directories are cached from LIST and files
// from RETR, "to reduce traffic"; writes are buffered and STORed on
// close; the cache is updated whenever a file is created (§6.2).
//
// mu serializes the one control connection: it is held across a whole
// command and its data transfer — TCP round trips — by design, so it is
// the lock that may be held across a park.
type FS struct {
	mu   vclock.Mutex
	ck   vclock.Clock // stamps a stat: the listing carries no times
	nsp  *ns.Namespace
	ctl  *dialer.Conn
	r    *bufio.Reader
	root *fentry
}

// fentry is one cached remote file or directory.
type fentry struct {
	name     string
	dir      bool
	length   int64
	qid      vfs.Qid
	parent   *fentry
	children map[string]*fentry
	listed   bool   // directory contents cached
	data     []byte // file contents cache
	fetched  bool
}

// Dial connects ftpfs to an FTP service ("tcp!host!ftp"), logs in,
// and sets image mode, as the ftpfs command does. ck is the mounting
// machine's clock: a second process that wants the file system while a
// transfer is in flight waits through it, and a stat reads its time.
func Dial(nsp *ns.Namespace, ck vclock.Clock, dest, user, pass string) (*FS, error) {
	conn, err := dialer.Dial(nsp, dest)
	if err != nil {
		return nil, err
	}
	fs := &FS{ck: ck, nsp: nsp, ctl: conn, r: bufio.NewReader(conn)}
	fs.mu.Init(ck)
	fs.root = &fentry{name: "/", dir: true, qid: vfs.Qid{Path: vfs.NewQidPath(), Type: vfs.QTDIR}}
	if code, _, err := fs.readReply(); err != nil || code != 220 {
		conn.Close()
		return nil, fmt.Errorf("ftpfs: bad greeting (%d, %v)", code, err)
	}
	if code, _, _ := fs.command("USER " + user); code != 331 && code != 230 {
		conn.Close()
		return nil, fmt.Errorf("ftpfs: USER refused")
	}
	if code, _, _ := fs.command("PASS " + pass); code != 230 {
		conn.Close()
		return nil, vfs.ErrPerm
	}
	if code, _, _ := fs.command("TYPE I"); code != 200 {
		conn.Close()
		return nil, fmt.Errorf("ftpfs: cannot set image mode")
	}
	return fs, nil
}

// Close logs out. The QUIT is a courtesy: the reply is not awaited,
// because at teardown the server may already be gone.
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fmt.Fprintf(fs.ctl, "QUIT\r\n")
	return fs.ctl.Close()
}

// command sends one control command and reads the reply. Callers hold
// fs.mu or are in Dial.
func (fs *FS) command(cmd string) (int, string, error) {
	if _, err := fmt.Fprintf(fs.ctl, "%s\r\n", cmd); err != nil {
		return 0, "", err
	}
	return fs.readReply()
}

func (fs *FS) readReply() (int, string, error) {
	line, err := fs.r.ReadString('\n')
	if err != nil {
		return 0, "", err
	}
	return parseReply(strings.TrimRight(line, "\r\n"))
}

// parseReply splits a reply line into its code and text. The code is
// three ASCII digits, the first of them 1 to 5 (RFC 959 §4.2), and a
// space follows it; anything else, a signed number or the hyphen of a
// multi-line reply included, is a bad reply.
func parseReply(line string) (int, string, error) {
	if len(line) < 4 {
		return 0, "", fmt.Errorf("ftpfs: short reply %q", line)
	}
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	if line[0] < '1' || line[0] > '5' || !digit(line[1]) || !digit(line[2]) || line[3] != ' ' {
		return 0, "", fmt.Errorf("ftpfs: bad reply %q", line)
	}
	code := int(line[0]-'0')*100 + int(line[1]-'0')*10 + int(line[2]-'0')
	return code, line[4:], nil
}

// transfer runs a PASV data transfer: cmd initiates it, f consumes or
// fills the data connection. Callers hold fs.mu.
func (fs *FS) transfer(cmd string, f func(io.ReadWriteCloser) error) error {
	code, msg, err := fs.command("PASV")
	if err != nil || code != 227 || !strings.HasPrefix(msg, "=") {
		return fmt.Errorf("ftpfs: PASV failed (%d %q, %v)", code, msg, err)
	}
	addr := msg[1:]
	code, _, err = fs.command(cmd)
	if err != nil || code != 150 {
		return fmt.Errorf("ftpfs: %s refused (%d, %v)", cmd, code, err)
	}
	dc, err := dialer.Dial(fs.nsp, "tcp!"+addr)
	if err != nil {
		return err
	}
	ferr := f(dc)
	dc.Close()
	code, _, err = fs.readReply()
	if err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}
	if code != 226 {
		return fmt.Errorf("ftpfs: transfer failed (%d)", code)
	}
	return nil
}

// remotePath returns the entry's path on the server.
func (e *fentry) remotePath() string {
	if e.parent == nil {
		return "/"
	}
	return ns.Clean(e.parent.remotePath() + "/" + e.name)
}

// list fills a directory's children from LIST. Callers hold fs.mu.
func (fs *FS) list(e *fentry) error {
	if e.listed {
		return nil
	}
	var out []byte
	err := fs.transfer("LIST "+e.remotePath(), func(dc io.ReadWriteCloser) error {
		b, err := io.ReadAll(dc)
		out = b
		if err == io.EOF {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	e.children = make(map[string]*fentry)
	for _, line := range strings.Split(string(out), "\r\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		size := int64(0)
		if len(f) >= 3 {
			size, _ = strconv.ParseInt(f[2], 10, 64)
		}
		child := &fentry{
			name:   f[1],
			dir:    f[0] == "d",
			length: size,
			parent: e,
			qid:    vfs.Qid{Path: vfs.NewQidPath()},
		}
		if child.dir {
			child.qid.Type = vfs.QTDIR
		}
		e.children[child.name] = child
	}
	e.listed = true
	return nil
}

// fetch fills a file's contents cache from RETR. Callers hold fs.mu.
func (fs *FS) fetch(e *fentry) error {
	if e.fetched {
		return nil
	}
	err := fs.transfer("RETR "+e.remotePath(), func(dc io.ReadWriteCloser) error {
		b, err := io.ReadAll(dc)
		e.data = b
		if err == io.EOF {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	e.fetched = true
	e.length = int64(len(e.data))
	return nil
}

// store uploads a file's buffered contents. Callers hold fs.mu.
func (fs *FS) store(e *fentry) error {
	return fs.transfer("STOR "+e.remotePath(), func(dc io.ReadWriteCloser) error {
		_, err := dc.Write(e.data)
		return err
	})
}

// Name implements vfs.Device.
func (fs *FS) Name() string { return "ftp" }

// Attach implements vfs.Device.
func (fs *FS) Attach(spec string) (vfs.Node, error) {
	if spec != "" {
		return nil, vfs.ErrBadSpec
	}
	return fnode{fs: fs, e: fs.root}, nil
}

// fnode is the vfs view of a cached entry.
type fnode struct {
	fs *FS
	e  *fentry
}

var (
	_ vfs.Node    = fnode{}
	_ vfs.Creator = fnode{}
	_ vfs.Remover = fnode{}
)

// Stat implements vfs.Node.
func (n fnode) Stat() (vfs.Dir, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	return n.statLocked(), nil
}

func (n fnode) statLocked() vfs.Dir {
	mode := uint32(0664)
	if n.e.dir {
		mode = vfs.DMDIR | 0775
	}
	now := uint32(n.fs.ck.Now().Unix())
	return vfs.Dir{
		Name: n.e.name, Qid: n.e.qid, Mode: mode,
		Length: n.e.length, Uid: "ftp", Gid: "ftp", Muid: "ftp",
		Atime: now, Mtime: now,
	}
}

// Walk implements vfs.Node.
func (n fnode) Walk(name string) (vfs.Node, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.e.dir {
		return nil, vfs.ErrNotDir
	}
	if name == ".." {
		if n.e.parent == nil {
			return n, nil
		}
		return fnode{fs: n.fs, e: n.e.parent}, nil
	}
	if err := n.fs.list(n.e); err != nil {
		return nil, err
	}
	child, ok := n.e.children[name]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	return fnode{fs: n.fs, e: child}, nil
}

// Open implements vfs.Node.
func (n fnode) Open(mode int) (vfs.Handle, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if n.e.dir {
		if vfs.AccessMode(mode) != vfs.OREAD {
			return nil, vfs.ErrIsDir
		}
		if err := n.fs.list(n.e); err != nil {
			return nil, err
		}
		return &fdirHandle{n: n}, nil
	}
	if vfs.ModeReadable(mode) || mode&vfs.OTRUNC == 0 {
		if err := n.fs.fetch(n.e); err != nil && vfs.ModeReadable(mode) {
			return nil, err
		}
	}
	if mode&vfs.OTRUNC != 0 {
		n.e.data = nil
		n.e.fetched = true
		n.e.length = 0
	}
	return &ffileHandle{n: n, mode: mode}, nil
}

// Create implements vfs.Creator: new files appear in the cache at once
// ("the cache is updated whenever a file is created") and reach the
// server on close (files) or immediately (directories, via MKD).
func (n fnode) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	if !n.e.dir {
		return nil, nil, vfs.ErrNotDir
	}
	if err := n.fs.list(n.e); err != nil {
		return nil, nil, err
	}
	if _, dup := n.e.children[name]; dup {
		return nil, nil, vfs.ErrExists
	}
	child := &fentry{
		name:   name,
		dir:    perm&vfs.DMDIR != 0,
		parent: n.e,
		qid:    vfs.Qid{Path: vfs.NewQidPath()},
	}
	if child.dir {
		child.qid.Type = vfs.QTDIR
		if code, _, err := n.fs.command("MKD " + child.remotePath()); err != nil || code != 257 {
			return nil, nil, vfs.ErrPerm
		}
		child.listed = true
		child.children = map[string]*fentry{}
	} else {
		child.fetched = true // empty, nothing to RETR
	}
	n.e.children[name] = child
	cn := fnode{fs: n.fs, e: child}
	if child.dir {
		return cn, &fdirHandle{n: cn}, nil
	}
	return cn, &ffileHandle{n: cn, mode: mode, dirty: true}, nil
}

// Remove implements vfs.Remover.
func (n fnode) Remove() error {
	n.fs.mu.Lock()
	defer n.fs.mu.Unlock()
	code, _, err := n.fs.command("DELE " + n.e.remotePath())
	if err != nil || code != 250 {
		return vfs.ErrPerm
	}
	if p := n.e.parent; p != nil && p.children != nil {
		delete(p.children, n.e.name)
	}
	return nil
}

// fdirHandle lists a cached directory.
type fdirHandle struct{ n fnode }

var (
	_ vfs.Handle    = (*fdirHandle)(nil)
	_ vfs.DirReader = (*fdirHandle)(nil)
)

// ReadDir implements vfs.DirReader. Entries come in name order, so a
// listing does not depend on map iteration.
func (h *fdirHandle) ReadDir() ([]vfs.Dir, error) {
	h.n.fs.mu.Lock()
	defer h.n.fs.mu.Unlock()
	var ents []vfs.Dir
	for _, c := range h.n.e.children {
		ents = append(ents, fnode{fs: h.n.fs, e: c}.statLocked())
	}
	slices.SortFunc(ents, func(a, b vfs.Dir) int { return strings.Compare(a.Name, b.Name) })
	return ents, nil
}

// Read implements vfs.Handle.
func (h *fdirHandle) Read(p []byte, off int64) (int, error) {
	ents, err := h.ReadDir()
	if err != nil {
		return 0, err
	}
	return vfs.ReadDirAt(ents, p, off)
}

// Write implements vfs.Handle.
func (h *fdirHandle) Write(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }

// Close implements vfs.Handle.
func (h *fdirHandle) Close() error { return nil }

// ffileHandle reads the cache and buffers writes until close.
type ffileHandle struct {
	n     fnode
	mode  int
	dirty bool
}

var _ vfs.Handle = (*ffileHandle)(nil)

// Read implements vfs.Handle.
func (h *ffileHandle) Read(p []byte, off int64) (int, error) {
	if !vfs.ModeReadable(h.mode) {
		return 0, vfs.ErrBadUseFd
	}
	h.n.fs.mu.Lock()
	defer h.n.fs.mu.Unlock()
	data := h.n.e.data
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(p, data[off:]), nil
}

// Write implements vfs.Handle: buffered until close, then STORed.
func (h *ffileHandle) Write(p []byte, off int64) (int, error) {
	if !vfs.ModeWritable(h.mode) {
		return 0, vfs.ErrBadUseFd
	}
	h.n.fs.mu.Lock()
	defer h.n.fs.mu.Unlock()
	e := h.n.e
	if need := off + int64(len(p)); need > int64(len(e.data)) {
		grown := make([]byte, need)
		copy(grown, e.data)
		e.data = grown
	}
	copy(e.data[off:], p)
	e.length = int64(len(e.data))
	h.dirty = true
	return len(p), nil
}

// Close implements vfs.Handle, flushing dirty contents with STOR.
func (h *ffileHandle) Close() error {
	if !h.dirty {
		return nil
	}
	h.n.fs.mu.Lock()
	defer h.n.fs.mu.Unlock()
	return h.n.fs.store(h.n.e)
}
