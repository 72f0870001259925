package streams

import (
	"strings"
	"testing"
)

// captureWire pushes specs on a stream, writes msgs, and returns the
// concatenated device-side bytes — what a snooper sees in segments.
func captureWire(t *testing.T, specs []string, msgs ...string) []byte {
	t.Helper()
	var wire []byte
	s := New(0, func(b *Block) {
		if b.Type == BlockData {
			wire = append(wire, b.Bytes()...)
		}
		b.Free()
	})
	for _, spec := range specs {
		if err := s.WriteCtl("push " + spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		if _, err := s.Write([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	return wire
}

func TestSnoopDescribesDisciplinedWire(t *testing.T) {
	// Batch alone: the payload is a walkable run of framed messages.
	wire := captureWire(t, []string{"batch 4096 1h"}, "hello", "stream", "world")
	d, ok := SnoopPayload(wire)
	if !ok || !strings.HasPrefix(d, "batch(3 msgs:") {
		t.Errorf("batch wire described as %q (ok=%v)", d, ok)
	}

	// Compress outermost with batch inside: both layers named.
	wire = captureWire(t, []string{"compress", "batch 4096 1h"},
		strings.Repeat("abcdefgh", 64), strings.Repeat("abcdefgh", 64))
	d, ok = SnoopPayload(wire)
	if !ok || !strings.Contains(d, "compress(lz") || !strings.Contains(d, "batch(2 msgs:") {
		t.Errorf("stacked wire described as %q (ok=%v)", d, ok)
	}

	// A partial compress frame still names the header.
	if len(wire) > compressHdrLen+4 {
		d, ok = SnoopPayload(wire[:compressHdrLen+4])
		if !ok || !strings.Contains(d, "of") {
			t.Errorf("partial frame described as %q (ok=%v)", d, ok)
		}
	}

	// Undisciplined traffic is left alone.
	if d, ok := SnoopPayload([]byte("GET / HTTP/1.0\r\n")); ok {
		t.Errorf("plain payload misdescribed as %q", d)
	}
	if _, ok := SnoopPayload(nil); ok {
		t.Error("empty payload described")
	}
}

// An empty delimited write goes out through batch as a zero-length
// frame, which the module's splitter accepts; the snooper reads frames
// with the same header reader, so it names it too.
func TestSnoopNamesEmptyBatchFrame(t *testing.T) {
	wire := captureWire(t, []string{"batch 4096 1h"}, "")
	if d, ok := SnoopPayload(wire); !ok || d != "batch(1 msgs: 0)" {
		t.Errorf("empty write described as %q (ok=%v)", d, ok)
	}
	wire = captureWire(t, []string{"batch 4096 1h"}, "", "hi", "")
	if d, ok := SnoopPayload(wire); !ok || d != "batch(3 msgs: 0 2 0)" {
		t.Errorf("empty writes around a message described as %q (ok=%v)", d, ok)
	}
}
