package ninep

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/vfs"
)

// Fuzz9PMessage throws arbitrary bytes at the 9P message parser — the
// bytes a file server reads straight off a network conversation, the
// most exposed parser in the system. The contract: UnmarshalFcall
// either rejects the input or produces an Fcall that marshals and
// re-unmarshals to the identical message; and decode, the in-place
// form the client and server read the wire with, agrees with it, an
// Rread's or Twrite's Data lying inside the wire buffer it decoded.
func Fuzz9PMessage(f *testing.F) {
	seed := func(fc *Fcall) {
		p, err := MarshalFcall(fc)
		if err != nil {
			f.Fatalf("seed %s: %v", fc, err)
		}
		f.Add(p)
	}
	seed(&Fcall{Type: Tnop, Tag: 0xffff})
	seed(&Fcall{Type: Tattach, Tag: 1, Fid: 0, Uname: "philw", Aname: ""})
	seed(&Fcall{Type: Twalk, Tag: 2, Fid: 3, Name: "helix"})
	seed(&Fcall{Type: Twrite, Tag: 3, Fid: 4, Offset: 1 << 20, Count: 5, Data: []byte("hello")})
	seed(&Fcall{Type: Rerror, Tag: 4, Ename: "phase error"})
	seed(&Fcall{Type: Rread, Tag: 5, Fid: 6, Count: 7, Data: []byte("goodbye")})
	seed(&Fcall{Type: Rstat, Tag: 6, Fid: 7, Stat: vfs.Dir{Name: "eia1ctl", Uid: "bootes", Gid: "bootes", Muid: "presotto",
		Qid: vfs.Qid{Path: 0xcafe, Vers: 3, Type: vfs.QTAPPEND}, Mode: vfs.DMAPPEND | 0666, Atime: 1, Mtime: 2, Length: 4096}})
	seed(&Fcall{Type: Twstat, Tag: 7, Fid: 8, Stat: vfs.Dir{Name: "renamed", Mode: 0644}})
	f.Add(rstatNameNoNUL(f))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, p []byte) {
		fc, err := UnmarshalFcall(p)
		inPlace(t, p, fc, err)
		if err != nil {
			return
		}
		q, err := MarshalFcall(fc)
		if err != nil {
			t.Fatalf("accepted message does not marshal: %s: %v", fc, err)
		}
		fc2, err := UnmarshalFcall(q)
		if err != nil {
			t.Fatalf("re-marshaled message rejected: %s: %v", fc, err)
		}
		if !reflect.DeepEqual(fc, fc2) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", fc, fc2)
		}
	})
}

// inPlace decodes a pooled copy of p as demux and ServeConn do and
// checks it against UnmarshalFcall's verdict want, err.
func inPlace(t *testing.T, p []byte, want *Fcall, err error) {
	msg := block.GetBytes(len(p))
	copy(msg, p)
	var got Fcall
	derr := decode(msg, &got)
	defer got.free()
	if (derr == nil) != (err == nil) {
		t.Fatalf("decode says %v, UnmarshalFcall %v", derr, err)
	}
	if err != nil {
		return
	}
	if n := len(got.Data); n > 0 {
		base, d := uintptr(unsafe.Pointer(&msg[0])), uintptr(unsafe.Pointer(&got.Data[0]))
		if d < base || d+uintptr(n) > base+uintptr(len(msg)) {
			t.Fatalf("decoded Data (%d bytes) lies outside the wire buffer", n)
		}
		if got.blk == nil {
			t.Fatalf("%s decoded in place but owns no block", &got)
		}
	} else if got.blk != nil {
		t.Fatalf("%s carries no data but kept its wire buffer", &got)
	}
	cmp := got
	cmp.blk = nil
	if !reflect.DeepEqual(&cmp, want) {
		t.Fatalf("decode and UnmarshalFcall disagree:\n%+v\n%+v", &cmp, want)
	}
}

// rstatNameNoNUL is an Rstat whose name field holds 28 non-NUL bytes:
// it once decoded to a 28-byte name that MarshalFcall then refused.
func rstatNameNoNUL(tb testing.TB) []byte {
	tb.Helper()
	p, err := MarshalFcall(&Fcall{Type: Rstat, Tag: 1, Fid: 2, Stat: vfs.Dir{Name: "x"}})
	if err != nil {
		tb.Fatal(err)
	}
	const nameAt = 4 + 1 + 2 + 4 // size, type, tag, fid
	for i := range NameLen {
		p[nameAt+i] = 'n'
	}
	return p
}

// TestStatNameWithoutNULRejected: the Fuzz9PMessage contract on the
// counterexample above. The decoder refuses a name field with no NUL,
// as it does a Twalk's, instead of accepting a message that cannot be
// marshaled back.
func TestStatNameWithoutNULRejected(t *testing.T) {
	p := rstatNameNoNUL(t)
	fc, err := UnmarshalFcall(p)
	if err != ErrNameLen {
		t.Fatalf("UnmarshalFcall = %+v, %v, want ErrNameLen", fc, err)
	}
	inPlace(t, p, fc, err)
	for _, typ := range []uint8{Rstat, Twstat} {
		for _, d := range []vfs.Dir{{Uid: strings.Repeat("u", NameLen)}, {Gid: strings.Repeat("g", NameLen)}, {Muid: strings.Repeat("m", NameLen)}} {
			if _, err := MarshalFcall(&Fcall{Type: typ, Stat: d}); err != vfs.ErrNameTooLong {
				t.Errorf("%s with %+v: MarshalFcall = %v, want vfs.ErrNameTooLong", TypeName(typ), d, err)
			}
		}
	}
}
