package streams

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// pairThrough builds a sender and receiver stream with the same module
// specs pushed (bottom-up order), wiring the sender's device output
// into the receiver's device input — a loopback conversation.
func pairThrough(t *testing.T, specs ...string) (tx, rx *Stream) {
	t.Helper()
	rx = New(0, nil)
	tx = New(0, func(b *Block) {
		if b.Type == BlockData {
			upData(rx, b.Bytes())
		}
		b.Free()
	})
	for _, spec := range specs {
		if err := tx.WriteCtl("push " + spec); err != nil {
			t.Fatalf("tx push %q: %v", spec, err)
		}
		if err := rx.WriteCtl("push " + spec); err != nil {
			t.Fatalf("rx push %q: %v", spec, err)
		}
	}
	return tx, rx
}

func TestCompressRoundTripThroughPair(t *testing.T) {
	tx, rx := pairThrough(t, "compress")
	defer tx.Close()
	defer rx.Close()
	msgs := [][]byte{
		bytes.Repeat([]byte("Twalk fid 7 /usr/glenda "), 40),
		[]byte("short"),
		bytes.Repeat([]byte{0xAA}, 10_000),
	}
	for _, m := range msgs {
		if _, err := tx.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64*1024)
	for i, want := range msgs {
		n, err := rx.Read(buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("msg %d: %d bytes out, %d in", i, n, len(want))
		}
	}
	// The conversation's bill must balance on both ends.
	txs := moduleSnapshot(t, tx)
	rxs := moduleSnapshot(t, rx)
	if txs["compress-saved-bytes"]+txs["compress-wire-bytes"] != txs["compress-bytes-in"] {
		t.Fatalf("sender identity broken: %+v", txs)
	}
	if txs["compress-saved-bytes"] <= 0 {
		t.Fatal("repetitive traffic saved nothing")
	}
	if rxs["compress-dec-frames"] != txs["compress-blocks-in"] {
		t.Fatalf("decoded %d frames, sent %d", rxs["compress-dec-frames"], txs["compress-blocks-in"])
	}
	if rxs["compress-dec-bytes"] != txs["compress-bytes-in"] {
		t.Fatalf("decoded %d bytes, sent %d", rxs["compress-dec-bytes"], txs["compress-bytes-in"])
	}
	if rxs["compress-dec-wire-bytes"] != txs["compress-wire-bytes"] {
		t.Fatalf("wire bytes disagree across the pair")
	}
}

func TestCompressIncompressiblePassthrough(t *testing.T) {
	tx, rx := pairThrough(t, "compress")
	defer tx.Close()
	defer rx.Close()
	rnd := make([]byte, 8192)
	rand.New(rand.NewSource(42)).Read(rnd)
	if _, err := tx.Write(rnd); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(rnd))
	if n, err := rx.Read(buf); err != nil || !bytes.Equal(buf[:n], rnd) {
		t.Fatalf("random payload mangled (n=%d err=%v)", n, err)
	}
	st := moduleSnapshot(t, tx)
	if st["compress-passthrough"] != 1 {
		t.Fatalf("passthrough %d, want 1", st["compress-passthrough"])
	}
	// Stored frames save nothing but also cost nothing beyond the header.
	if st["compress-saved-bytes"] != 0 || st["compress-wire-bytes"] != int64(len(rnd)) {
		t.Fatalf("stored frame accounting: %+v", st)
	}
	if st["compress-hdr-bytes"] != compressHdrLen {
		t.Fatalf("hdr bytes %d", st["compress-hdr-bytes"])
	}
}

func TestCompressChunkedReassembly(t *testing.T) {
	// Capture real wire frames, then replay them under hostile
	// chunkings into a fresh decoder.
	var wire []byte
	tx := New(0, func(b *Block) {
		if b.Type == BlockData {
			wire = append(wire, b.Bytes()...)
		}
		b.Free()
	})
	if err := tx.WriteCtl("push compress"); err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{
		bytes.Repeat([]byte("cache coherent "), 30),
		[]byte("x"),
		bytes.Repeat([]byte("0123456789abcdef"), 100),
	}
	for _, m := range msgs {
		tx.Write(m)
	}
	tx.Close()
	for _, chunk := range []int{1, 2, 3, 7, 11, 64, 1000, len(wire)} {
		rx := New(0, nil)
		if err := rx.WriteCtl("push compress"); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			upData(rx, wire[off:end])
		}
		buf := make([]byte, 64*1024)
		for i, want := range msgs {
			n, err := rx.Read(buf)
			if err != nil {
				t.Fatalf("chunk %d msg %d: %v", chunk, i, err)
			}
			if !bytes.Equal(buf[:n], want) {
				t.Fatalf("chunk %d msg %d mangled", chunk, i)
			}
		}
		rx.Close()
	}
}

func TestCompressStrictDecoder(t *testing.T) {
	inject := func(t *testing.T, frame []byte) map[string]int64 {
		t.Helper()
		rx := New(0, nil)
		defer rx.Close()
		if err := rx.WriteCtl("push compress"); err != nil {
			t.Fatal(err)
		}
		upData(rx, frame)
		if _, err := rx.Read(make([]byte, 64)); err == nil {
			t.Fatal("read succeeded past a poisoned decoder")
		}
		return moduleSnapshot(t, rx)
	}
	hdr := func(flags byte, ulen, clen uint32, payload []byte) []byte {
		f := make([]byte, compressHdrLen+len(payload))
		f[0] = compressMagic
		f[1] = flags
		binary.BigEndian.PutUint32(f[2:6], ulen)
		binary.BigEndian.PutUint32(f[6:10], clen)
		copy(f[compressHdrLen:], payload)
		return f
	}
	cases := map[string][]byte{
		"bad magic":          {0x00, 0x01, 0, 0, 0, 4, 0, 0, 0, 4, 'a', 'b', 'c', 'd'},
		"unknown flag":       hdr(0x80, 4, 4, []byte("abcd")),
		"decompression bomb": hdr(cflagLZ|cflagDelim, 1<<31-1, 4, []byte("abcd")),
		"stored len lies":    hdr(cflagDelim, 8, 4, []byte("abcd")),
		"corrupt lz":         hdr(cflagLZ|cflagDelim, 100, 4, []byte{0xF0, 0xFF, 0xFF, 0xFF}),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			st := inject(t, frame)
			if st["compress-dec-errs"] != 1 {
				t.Fatalf("dec-errs %d, want 1", st["compress-dec-errs"])
			}
		})
	}
}

func TestCompressRejectsArgs(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	if err := s.WriteCtl("push compress loud"); err == nil {
		t.Fatal("compress accepted an argument")
	}
}

func TestBatchAndCompressStacked(t *testing.T) {
	// The production stack: compress near the device, batch on top.
	// Small messages coalesce into one window, the window compresses
	// once, and the receiver inverts both — bytes and boundaries intact.
	tx, rx := pairThrough(t, "compress", "batch 512 1h")
	defer rx.Close()
	var msgs [][]byte
	for i := 0; i < 40; i++ {
		m := bytes.Repeat([]byte("Tread fid 9 off 8192 "), 1+i%3)
		m = append(m, byte(i))
		msgs = append(msgs, m)
		if _, err := tx.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	groups := tx.ModuleStats() // groups outlive the pops in Close
	tx.Close()                 // drains the final window through the pop path
	buf := make([]byte, 64*1024)
	for i, want := range msgs {
		n, err := rx.Read(buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("msg %d mangled through the stack", i)
		}
	}
	txs := map[string]int64{}
	for _, g := range groups {
		for k, v := range g.Snapshot() {
			txs[k] = v
		}
	}
	if txs["compress-saved-bytes"] <= 0 {
		t.Fatal("coalesced windows should compress well")
	}
	if txs["batch-wire-blocks"] != txs["compress-blocks-in"] {
		t.Fatalf("batch emitted %d blocks, compress saw %d",
			txs["batch-wire-blocks"], txs["compress-blocks-in"])
	}
}
