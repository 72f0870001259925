package streams

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
)

// frameWireGolden is what a stream with "frame" pushed handed its
// device end for the script below — per block: length, delimiter, first
// eight bytes; then the hash of every byte — captured at commit 0d01a3e,
// when frame was a module of its own. The batch module with a window of
// one message must put the same bytes on the wire.
const frameWireGolden = `9 true 00000005050c131a
4 true 00000000
5 true 0000000101
32772 true 0000800000070e15
32773 true 0000800101080f16
70004 true 0001117070777e85
7 true 00000003030a11
sha256 23a18616eb9b68ead33d5257a1e6240ba6b06903c363b528a6bc023124cfe923`

func TestFrameWireGolden(t *testing.T) {
	var lines []string
	h := sha256.New()
	s := New(0, func(b *Block) {
		p := b.Bytes()
		lines = append(lines, fmt.Sprintf("%d %v %x", len(p), b.Delim, p[:min(len(p), 8)]))
		h.Write(p)
		b.Free()
	})
	defer s.Close()
	if err := s.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	// Single-block writes (empty, tiny, exactly MaxBlock) and
	// multi-block ones (one byte over, and three blocks' worth).
	for _, n := range []int{5, 0, 1, MaxBlock, MaxBlock + 1, 70000, 3} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		if _, err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	lines = append(lines, fmt.Sprintf("sha256 %x", h.Sum(nil)))
	if got := strings.Join(lines, "\n"); got != frameWireGolden {
		t.Fatalf("frame wire bytes moved:\n%s\nwant:\n%s", got, frameWireGolden)
	}
}

// A declared length over batchMaxMsg hangs the stream up; the bytes
// behind it are dropped, not buffered toward a frame that never ends.
// They arrive faster than the stream's limit lets the device end hold
// them unread, so the device queues them on its own process while the
// reader carries them up.
func TestFrameRejectsOversizedPrefix(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	if err := s.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], batchMaxMsg+1)
	device := make(chan struct{})
	go func() {
		defer close(device)
		upData(s, hdr[:])
		for i := 0; i < 8; i++ {
			upData(s, make([]byte, MaxBlock))
		}
	}()
	if n, err := s.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("Read = %d, %v; want EOF", n, err)
	}
	<-device // the hangup lets the device end queue past the limit
	if st := s.topWrite.next.other.Aux.(*batchState); len(st.split.partial) != 0 {
		t.Fatalf("splitter holds %d bytes behind a hostile prefix", len(st.split.partial))
	}
	if errs := moduleSnapshot(t, s)["batch-errs"]; errs != 1 {
		t.Fatalf("errs %d, want 1", errs)
	}
}
