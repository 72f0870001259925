package vfs

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// The 1993 9P carries directory entries and stat results as fixed-size
// records, so a directory read returns an integral number of entries
// and offsets are multiples of DirRecLen. We keep that property (it is
// what lets the mount driver and exportfs relay directory reads without
// reframing) but widen qid.path to 64 bits.
//
// Layout (little endian, lengths in bytes):
//
//	name[28] uid[28] gid[28] muid[28]
//	qid.path[8] qid.vers[4] qid.type[1] pad[1]
//	mode[4] atime[4] mtime[4] length[8] = 144
const (
	nameLen   = 28
	DirRecLen = 4*nameLen + 8 + 4 + 1 + 1 + 4 + 4 + 4 + 8
)

var errDirTooShort = errors.New("malformed directory entry")

// ErrNameTooLong reports a name that does not fit the fixed record.
var ErrNameTooLong = errors.New("name too long for directory entry")

func putName(p []byte, s string) {
	for i := range nameLen {
		p[i] = 0
	}
	copy(p[:nameLen-1], s)
}

// MarshalDir appends the fixed-size record for d to p. Each of the
// four names must leave room for its NUL terminator.
func MarshalDir(p []byte, d Dir) ([]byte, error) {
	if len(d.Name) >= nameLen || len(d.Uid) >= nameLen || len(d.Gid) >= nameLen || len(d.Muid) >= nameLen {
		return p, ErrNameTooLong
	}
	var rec [DirRecLen]byte
	b := rec[:]
	putName(b[0:], d.Name)
	putName(b[nameLen:], d.Uid)
	putName(b[2*nameLen:], d.Gid)
	putName(b[3*nameLen:], d.Muid)
	o := 4 * nameLen
	binary.LittleEndian.PutUint64(b[o:], d.Qid.Path)
	binary.LittleEndian.PutUint32(b[o+8:], d.Qid.Vers)
	b[o+12] = d.Qid.Type
	b[o+13] = 0
	binary.LittleEndian.PutUint32(b[o+14:], d.Mode)
	binary.LittleEndian.PutUint32(b[o+18:], d.Atime)
	binary.LittleEndian.PutUint32(b[o+22:], d.Mtime)
	binary.LittleEndian.PutUint64(b[o+26:], uint64(d.Length))
	return append(p, b[:]...), nil
}

// UnmarshalDir decodes one fixed-size record from p. The four names
// are copied out as one string, which Name, Uid, Gid and Muid slice, so
// a record costs one allocation, none when every name is empty. A name
// field with no NUL is refused, as MarshalDir would refuse its name.
func UnmarshalDir(p []byte) (Dir, error) {
	if len(p) < DirRecLen {
		return Dir{}, errDirTooShort
	}
	var names [4 * (nameLen - 1)]byte
	var ends [4]int
	n := 0
	for i := range ends {
		field := p[i*nameLen : (i+1)*nameLen]
		k := bytes.IndexByte(field, 0)
		if k < 0 {
			return Dir{}, ErrNameTooLong
		}
		n += copy(names[n:], field[:k])
		ends[i] = n
	}
	s := string(names[:n])
	var d Dir
	d.Name = s[:ends[0]]
	d.Uid = s[ends[0]:ends[1]]
	d.Gid = s[ends[1]:ends[2]]
	d.Muid = s[ends[2]:ends[3]]
	o := 4 * nameLen
	d.Qid.Path = binary.LittleEndian.Uint64(p[o:])
	d.Qid.Vers = binary.LittleEndian.Uint32(p[o+8:])
	d.Qid.Type = p[o+12]
	d.Mode = binary.LittleEndian.Uint32(p[o+14:])
	d.Atime = binary.LittleEndian.Uint32(p[o+18:])
	d.Mtime = binary.LittleEndian.Uint32(p[o+22:])
	d.Length = int64(binary.LittleEndian.Uint64(p[o+26:]))
	return d, nil
}

// ReadDirAt serves a directory read at the given offset from the full
// entry list, enforcing 9P's rule that directory reads begin and end on
// record boundaries.
func ReadDirAt(entries []Dir, p []byte, off int64) (int, error) {
	if off%DirRecLen != 0 {
		return 0, ErrBadOffset
	}
	i := int(off / DirRecLen)
	n := 0
	var rec []byte
	for ; i < len(entries); i++ {
		if n+DirRecLen > len(p) {
			break
		}
		var err error
		rec, err = MarshalDir(rec[:0], entries[i])
		if err != nil {
			return n, err
		}
		copy(p[n:], rec)
		n += DirRecLen
	}
	return n, nil
}
