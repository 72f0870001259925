package vfs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func TestQidIsDir(t *testing.T) {
	if (Qid{Type: QTFILE}).IsDir() {
		t.Error("file qid reported as dir")
	}
	if !(Qid{Type: QTDIR}).IsDir() {
		t.Error("dir qid not reported as dir")
	}
	if !(Qid{Type: QTDIR | QTAPPEND}).IsDir() {
		t.Error("dir|append qid not reported as dir")
	}
}

func TestQidString(t *testing.T) {
	s := Qid{Path: 0x2a, Vers: 3, Type: QTDIR | QTEXCL}.String()
	if s != "(0x2a 3 dl)" {
		t.Errorf("Qid.String = %q", s)
	}
}

func TestDirIsDir(t *testing.T) {
	if !(Dir{Mode: DMDIR | 0755}).IsDir() {
		t.Error("DMDIR entry not a dir")
	}
	if (Dir{Mode: 0644}).IsDir() {
		t.Error("plain entry is a dir")
	}
}

func TestAccessModeHelpers(t *testing.T) {
	cases := []struct {
		mode            int
		readable, wable bool
	}{
		{OREAD, true, false},
		{OWRITE, false, true},
		{ORDWR, true, true},
		{OEXEC, true, false},
		{OREAD | OTRUNC, true, false},
		{OWRITE | ORCLOSE, false, true},
		{ORDWR | OTRUNC | ORCLOSE, true, true},
	}
	for _, c := range cases {
		if ModeReadable(c.mode) != c.readable {
			t.Errorf("ModeReadable(%#x) = %v", c.mode, !c.readable)
		}
		if ModeWritable(c.mode) != c.wable {
			t.Errorf("ModeWritable(%#x) = %v", c.mode, !c.wable)
		}
	}
}

func TestSameError(t *testing.T) {
	if !SameError(ErrNotExist, ErrNotExist) {
		t.Error("identical errors differ")
	}
	reconstructed := errString(ErrNotExist.Error())
	if !SameError(reconstructed, ErrNotExist) {
		t.Error("reconstructed error not matched by message")
	}
	if SameError(ErrNotExist, ErrPerm) {
		t.Error("distinct errors matched")
	}
	if SameError(nil, ErrPerm) || SameError(ErrPerm, nil) {
		t.Error("nil matched non-nil")
	}
	if !SameError(nil, nil) {
		t.Error("nil did not match nil")
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestNewQidPathUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for range 1000 {
		p := NewQidPath()
		if seen[p] {
			t.Fatalf("duplicate qid path %d", p)
		}
		seen[p] = true
	}
}

func TestDirMarshalRoundTrip(t *testing.T) {
	d := Dir{
		Name: "eia1ctl", Uid: "bootes", Gid: "bootes", Muid: "presotto",
		Qid:  Qid{Path: 0xdeadbeefcafe, Vers: 7, Type: QTAPPEND},
		Mode: DMAPPEND | 0666, Atime: 111, Mtime: 222, Length: 31337,
	}
	b, err := MarshalDir(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != DirRecLen {
		t.Fatalf("record length %d, want %d", len(b), DirRecLen)
	}
	got, err := UnmarshalDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDirMarshalNameTooLong(t *testing.T) {
	d := Dir{Name: "this-name-is-way-too-long-for-a-fixed-record"}
	if _, err := MarshalDir(nil, d); err != ErrNameTooLong {
		t.Errorf("got %v, want ErrNameTooLong", err)
	}
}

// Every name field of a record must hold its NUL: MarshalDir refuses a
// uid, gid or muid of 28 bytes or more as it does a name, and
// UnmarshalDir refuses a field of 28 non-NUL bytes, which no record
// MarshalDir makes could carry.
func TestDirNamesNeedTheirNUL(t *testing.T) {
	long := strings.Repeat("u", nameLen)
	for _, d := range []Dir{{Uid: long}, {Gid: long}, {Muid: long}} {
		if _, err := MarshalDir(nil, d); err != ErrNameTooLong {
			t.Errorf("MarshalDir(%+v) = %v, want ErrNameTooLong", d, err)
		}
	}
	for field := range 4 {
		b, err := MarshalDir(nil, Dir{Name: "n", Uid: "u", Gid: "g", Muid: "m"})
		if err != nil {
			t.Fatal(err)
		}
		copy(b[field*nameLen:(field+1)*nameLen], long)
		if d, err := UnmarshalDir(b); err != ErrNameTooLong {
			t.Errorf("field %d with no NUL: UnmarshalDir = %+v, %v, want ErrNameTooLong", field, d, err)
		}
	}
}

// TestAllocsUnmarshalDir: a record's four names come out as one
// string, so decoding one costs one object, and none when every name
// is empty. A decoder that makes a string per field fails here.
func TestAllocsUnmarshalDir(t *testing.T) {
	if block.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		d    Dir
		want float64
	}{
		{Dir{Name: "eia1ctl", Uid: "bootes", Gid: "bootes", Muid: "presotto", Length: 1}, 1},
		{Dir{Name: strings.Repeat("n", nameLen-1), Uid: strings.Repeat("u", nameLen-1), Gid: strings.Repeat("g", nameLen-1), Muid: strings.Repeat("m", nameLen-1)}, 1},
		{Dir{Qid: Qid{Path: 9}}, 0},
	} {
		b, err := MarshalDir(nil, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		var got Dir
		allocs := testing.AllocsPerRun(100, func() { got, _ = UnmarshalDir(b) })
		if got != tc.d {
			t.Errorf("UnmarshalDir = %+v, want %+v", got, tc.d)
		}
		if allocs != tc.want {
			t.Errorf("UnmarshalDir of %+v: %.1f allocs, want %.0f", tc.d, allocs, tc.want)
		}
	}
}

func TestUnmarshalDirShort(t *testing.T) {
	if _, err := UnmarshalDir(make([]byte, DirRecLen-1)); err == nil {
		t.Error("short record accepted")
	}
}

// Property: any Dir with in-range names round-trips exactly.
func TestDirRoundTripQuick(t *testing.T) {
	clamp := func(s string) string {
		s = nonNul(s)
		if len(s) > 27 {
			s = s[:27]
		}
		return s
	}
	f := func(name, uid, gid, muid string, path uint64, vers uint32, typ uint8, mode, at, mt uint32, length int64) bool {
		d := Dir{
			Name: clamp(name), Uid: clamp(uid), Gid: clamp(gid), Muid: clamp(muid),
			Qid:  Qid{Path: path, Vers: vers, Type: typ},
			Mode: mode, Atime: at, Mtime: mt, Length: length,
		}
		b, err := MarshalDir(nil, d)
		if err != nil {
			return false
		}
		got, err := UnmarshalDir(b)
		return err == nil && got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func nonNul(s string) string {
	b := []byte(s)
	out := b[:0]
	for _, c := range b {
		if c != 0 {
			out = append(out, c)
		}
	}
	return string(out)
}

func TestReadDirAt(t *testing.T) {
	ents := []Dir{
		{Name: "a", Qid: Qid{Path: 1}},
		{Name: "b", Qid: Qid{Path: 2}},
		{Name: "c", Qid: Qid{Path: 3}},
	}
	// Whole listing.
	buf := make([]byte, 10*DirRecLen)
	n, err := ReadDirAt(ents, buf, 0)
	if err != nil || n != 3*DirRecLen {
		t.Fatalf("ReadDirAt = %d, %v", n, err)
	}
	d, _ := UnmarshalDir(buf[DirRecLen:])
	if d.Name != "b" {
		t.Errorf("second entry %q, want b", d.Name)
	}
	// Resume at an entry boundary.
	n, err = ReadDirAt(ents, buf, 2*DirRecLen)
	if err != nil || n != DirRecLen {
		t.Fatalf("resumed ReadDirAt = %d, %v", n, err)
	}
	d, _ = UnmarshalDir(buf)
	if d.Name != "c" {
		t.Errorf("resumed entry %q, want c", d.Name)
	}
	// EOF past the end.
	n, err = ReadDirAt(ents, buf, 3*DirRecLen)
	if n != 0 || err != nil {
		t.Errorf("past-end read = %d, %v", n, err)
	}
	// Misaligned offset rejected.
	if _, err = ReadDirAt(ents, buf, 7); err != ErrBadOffset {
		t.Errorf("misaligned offset error = %v", err)
	}
	// Short buffer truncates to whole records.
	small := make([]byte, DirRecLen+DirRecLen/2)
	n, err = ReadDirAt(ents, small, 0)
	if err != nil || n != DirRecLen {
		t.Errorf("short buffer read = %d, %v", n, err)
	}
}

type fakeNode struct {
	name     string
	children map[string]Node
}

func (f fakeNode) Stat() (Dir, error) { return Dir{Name: f.name}, nil }
func (f fakeNode) Walk(name string) (Node, error) {
	c, ok := f.children[name]
	if !ok {
		return nil, ErrNotExist
	}
	return c, nil
}
func (f fakeNode) Open(mode int) (Handle, error) { return nil, ErrPerm }

func TestMarshalDirAppends(t *testing.T) {
	prefix := []byte("xx")
	b, err := MarshalDir(prefix, Dir{Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, prefix) || len(b) != 2+DirRecLen {
		t.Errorf("MarshalDir did not append: len=%d", len(b))
	}
}
