package streams

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// drainData pops everything queued at the top of the stream without
// blocking (fuzz inputs often leave the reassembler mid-frame with
// nothing deliverable, where Read would park).
func drainData(s *Stream) [][]byte {
	var out [][]byte
	for {
		b := s.topRead.TryGet()
		if b == nil {
			return out
		}
		if b.Type == BlockData {
			out = append(out, append([]byte(nil), b.Bytes()...))
		}
		b.Free()
	}
}

// FuzzCompressFrame drives the compress module from both sides with
// arbitrary bytes.
//
// Property 1 (round trip): any payload framed by the encoder must come
// back byte-identical through the decoder, under any chunking.
// Property 2 (strictness): arbitrary bytes fed to the decoder must
// never panic, never over-read, and anything it does deliver while the
// stream is alive must have come from a well-formed frame.
func FuzzCompressFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("Twalk fid 42 newfid 43 /usr/glenda/lib/profile"))
	f.Add(bytes.Repeat([]byte("abcd"), 300))
	f.Add([]byte{compressMagic, 0x01, 0, 0, 0, 4, 0, 0, 0, 4, 'a', 'b', 'c', 'd'})
	f.Add([]byte{compressMagic, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 0x00})
	f.Fuzz(fuzzCompressOnce)
}

func fuzzCompressOnce(t *testing.T, data []byte) {
	// Bound one exec's work: the properties are about framing logic,
	// not bulk throughput, and the mutator loves huge inputs.
	if len(data) > 64<<10 {
		data = data[:64<<10]
	}
	{
		// Round trip: data is a payload.
		var wire []byte
		txDev := New(0, func(b *Block) {
			if b.Type == BlockData {
				wire = append(wire, b.Bytes()...)
			}
			b.Free()
		})
		if err := txDev.WriteCtl("push compress"); err != nil {
			t.Fatal(err)
		}
		if _, err := txDev.Write(data); err != nil {
			t.Fatal(err)
		}
		// Byte-at-a-time replay is quadratic in the reassembler's partial
		// buffer; keep the fine chunkings for small inputs only.
		chunks := []int{len(wire)}
		if len(wire) <= 2048 {
			chunks = []int{1, 7, len(wire)}
		}
		for _, chunk := range chunks {
			if chunk <= 0 {
				continue
			}
			rx := New(1<<30, nil)
			rx.WriteCtl("push compress")
			for off := 0; off < len(wire); off += chunk {
				end := off + chunk
				if end > len(wire) {
					end = len(wire)
				}
				upData(rx, wire[off:end])
			}
			var got []byte
			for _, p := range drainData(rx) {
				got = append(got, p...)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip diverges: %d bytes in, %d out (chunk %d)", len(data), len(got), chunk)
			}
			rx.Close()
		}

		// Strictness: data is hostile wire bytes.
		hchunks := []int{len(data)}
		if len(data) <= 2048 {
			hchunks = []int{3, len(data)}
		}
		for _, chunk := range hchunks {
			if chunk <= 0 {
				continue
			}
			rx := New(1<<30, nil)
			rx.WriteCtl("push compress")
			// A hostile stream of tiny frames can each declare a huge
			// uncompressed length (the anti-bomb cap is per frame, not
			// per stream); drain as we go and stop after a fixed budget
			// so one fuzz exec stays bounded.
			budget := 0
			for off := 0; off < len(data) && budget < 16<<20; off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				upData(rx, data[off:end])
				for _, p := range drainData(rx) {
					budget += len(p)
				}
			}
			rx.Close()
		}

		// The raw decoder under a size the input did not declare.
		dst := make([]byte, 257)
		lzExpand(dst, data) // must not panic
	}
}

// FuzzBatchReassembly drives the batch module's coalescer and splitter.
//
// Property 1 (round trip): arbitrary bytes cut into messages, batched
// under several cap/chunk geometries, must split back into exactly the
// original messages.
// Property 2 (strictness): arbitrary bytes fed straight to the
// splitter must never panic and never fabricate an oversized frame.
func FuzzBatchReassembly(f *testing.F) {
	f.Add([]byte(nil), uint16(8))
	f.Add([]byte("hello world, this is a batch of messages"), uint16(5))
	f.Add(bytes.Repeat([]byte("msg"), 100), uint16(64))
	var oversize [8]byte
	binary.BigEndian.PutUint32(oversize[:4], uint32(batchMaxMsg+1))
	f.Add(oversize[:], uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		step := int(cut%251) + 1
		var msgs [][]byte
		for off := 0; off < len(data); off += step {
			end := off + step
			if end > len(data) {
				end = len(data)
			}
			msgs = append(msgs, data[off:end])
		}

		// Round trip: coalesce under a cap derived from the input, then
		// split the wire back under a different chunking.
		capN := int(cut)%4096 + 16
		var wire []byte
		tx := New(0, func(b *Block) {
			if b.Type == BlockData {
				wire = append(wire, b.Bytes()...)
			}
			b.Free()
		})
		if err := tx.Push(batchModule, BatchConfig{Cap: capN, Delay: time.Hour}); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if _, err := tx.Write(m); err != nil {
				t.Fatal(err)
			}
		}
		tx.Close() // pop-drain flushes the tail
		rx := New(1<<30, nil)
		rx.WriteCtl("push batch")
		chunk := step*2 + 1
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			upData(rx, wire[off:end])
		}
		got := drainData(rx)
		if len(got) != len(msgs) {
			t.Fatalf("%d messages in, %d out", len(msgs), len(got))
		}
		for i := range msgs {
			if !bytes.Equal(got[i], msgs[i]) {
				t.Fatalf("message %d diverges", i)
			}
		}
		rx.Close()

		// Strictness: the same bytes as a hostile wire stream, into the
		// splitter under both of its names.
		for _, mod := range []string{"batch", "frame"} {
			hx := New(1<<30, nil)
			hx.WriteCtl("push " + mod)
			for off := 0; off < len(data); off += 5 {
				end := off + 5
				if end > len(data) {
					end = len(data)
				}
				upData(hx, data[off:end])
			}
			for _, m := range drainData(hx) {
				if len(m) > batchMaxMsg {
					t.Fatalf("%s splitter fabricated a %d-byte frame", mod, len(m))
				}
			}
			hx.Close()
		}
	})
}
