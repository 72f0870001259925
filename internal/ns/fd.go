package ns

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// FD is an open file descriptor in a name space: an offset plus the
// underlying handle. It satisfies io.ReadWriteCloser; device files
// whose contents are streams ignore the offset, so sequential Read and
// Write behave as on a connection.
type FD struct {
	name  string
	h     vfs.Handle
	isDir bool

	mu     sync.Mutex
	off    int64
	closed bool
}

var _ io.ReadWriteCloser = (*FD)(nil)

// openFDs is the book of FDs open through every name space: Open and
// Create add one, an FD's first Close takes it off. leakcheck.Main
// fails a package that ends its tests with one still open.
var openFDs atomic.Int64

// OpenFDs returns how many FDs are open through all name spaces.
func OpenFDs() int64 { return openFDs.Load() }

// Name returns the canonical path the FD was opened at.
func (fd *FD) Name() string { return fd.name }

// Handle exposes the underlying handle (for offset-addressed I/O).
func (fd *FD) Handle() vfs.Handle { return fd.h }

// Read implements io.Reader at the FD's current offset.
func (fd *FD) Read(p []byte) (int, error) {
	fd.mu.Lock()
	off := fd.off
	fd.mu.Unlock()
	n, err := fd.h.Read(p, off)
	fd.mu.Lock()
	fd.off += int64(n)
	fd.mu.Unlock()
	if n == 0 && err == nil && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// ReadAt reads at an explicit offset without moving the FD offset.
func (fd *FD) ReadAt(p []byte, off int64) (int, error) { return fd.h.Read(p, off) }

// Write implements io.Writer at the FD's current offset.
func (fd *FD) Write(p []byte) (int, error) {
	fd.mu.Lock()
	off := fd.off
	fd.mu.Unlock()
	n, err := fd.h.Write(p, off)
	fd.mu.Lock()
	fd.off += int64(n)
	fd.mu.Unlock()
	return n, err
}

// WriteAt writes at an explicit offset without moving the FD offset.
func (fd *FD) WriteAt(p []byte, off int64) (int, error) { return fd.h.Write(p, off) }

// WriteString writes s.
func (fd *FD) WriteString(s string) (int, error) { return fd.Write([]byte(s)) }

// ReadDir returns the directory entries when the FD is a directory.
func (fd *FD) ReadDir() ([]vfs.Dir, error) {
	if !fd.isDir {
		return nil, vfs.ErrNotDir
	}
	if dr, ok := fd.h.(vfs.DirReader); ok {
		return dr.ReadDir()
	}
	// Fall back to decoding marshaled records (e.g. via the mount
	// driver, which relays raw directory reads).
	var ents []vfs.Dir
	buf := make([]byte, 16*vfs.DirRecLen)
	off := int64(0)
	for {
		n, err := fd.h.Read(buf, off)
		if err != nil {
			return ents, err
		}
		if n == 0 {
			return ents, nil
		}
		for i := 0; i+vfs.DirRecLen <= n; i += vfs.DirRecLen {
			d, err := vfs.UnmarshalDir(buf[i : i+vfs.DirRecLen])
			if err != nil {
				return ents, err
			}
			ents = append(ents, d)
		}
		off += int64(n - n%vfs.DirRecLen)
	}
}

// IsDir reports whether the FD is an open directory.
func (fd *FD) IsDir() bool { return fd.isDir }

// Close releases the handle. Closing twice is harmless.
func (fd *FD) Close() error {
	fd.mu.Lock()
	if fd.closed {
		fd.mu.Unlock()
		return nil
	}
	fd.closed = true
	fd.mu.Unlock()
	openFDs.Add(-1)
	return fd.h.Close()
}

// unionHandle concatenates the directory listings of union members,
// preserving duplicates as the kernel does.
type unionHandle struct {
	hs []vfs.Handle
}

var (
	_ vfs.Handle    = (*unionHandle)(nil)
	_ vfs.DirReader = (*unionHandle)(nil)
)

// ReadDir implements vfs.DirReader.
func (u *unionHandle) ReadDir() ([]vfs.Dir, error) {
	var all []vfs.Dir
	for _, h := range u.hs {
		if dr, ok := h.(vfs.DirReader); ok {
			ents, err := dr.ReadDir()
			if err != nil {
				continue
			}
			all = append(all, ents...)
			continue
		}
		// Remote member: decode marshaled records.
		buf := make([]byte, 16*vfs.DirRecLen)
		off := int64(0)
		for {
			n, err := h.Read(buf, off)
			if n == 0 || err != nil {
				break
			}
			for i := 0; i+vfs.DirRecLen <= n; i += vfs.DirRecLen {
				d, derr := vfs.UnmarshalDir(buf[i : i+vfs.DirRecLen])
				if derr != nil {
					break
				}
				all = append(all, d)
			}
			off += int64(n - n%vfs.DirRecLen)
		}
	}
	return all, nil
}

// Read implements vfs.Handle over the merged listing.
func (u *unionHandle) Read(p []byte, off int64) (int, error) {
	ents, err := u.ReadDir()
	if err != nil {
		return 0, err
	}
	return vfs.ReadDirAt(ents, p, off)
}

// Write implements vfs.Handle.
func (u *unionHandle) Write(p []byte, off int64) (int, error) { return 0, vfs.ErrIsDir }

// Close implements vfs.Handle.
func (u *unionHandle) Close() error {
	for _, h := range u.hs {
		h.Close()
	}
	return nil
}
