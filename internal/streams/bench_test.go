package streams

import (
	"testing"
)

// §2.4.4 reflects on stream complexity but notes "performance is not
// an issue; the time to process protocols and drive device interfaces
// continues to dwarf the time spent allocating, freeing, and moving
// blocks of data." These benchmarks measure the block-moving costs so
// that claim can be checked against the protocol costs bench's probes
// report (il.echo_host_us: an IL message costs ~13 µs end to end; a
// block traversing a stream costs well under a microsecond).

func benchWrite(b *testing.B, modules int, size int) {
	var sink int
	s := New(1<<30, func(blk *Block) { sink += blk.Len(); blk.Free() })
	defer s.Close()
	for range modules {
		if err := s.Push(traceModule, nil); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for b.Loop() {
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamWrite1K0Modules(b *testing.B)  { benchWrite(b, 0, 1024) }
func BenchmarkStreamWrite1K1Module(b *testing.B)   { benchWrite(b, 1, 1024) }
func BenchmarkStreamWrite1K4Modules(b *testing.B)  { benchWrite(b, 4, 1024) }
func BenchmarkStreamWrite16K0Modules(b *testing.B) { benchWrite(b, 0, 16*1024) }
func BenchmarkStreamWrite16K4Modules(b *testing.B) { benchWrite(b, 4, 16*1024) }

func BenchmarkStreamRoundTrip(b *testing.B) {
	var s *Stream
	s = New(1<<30, func(blk *Block) { s.DeviceUp(blk) })
	defer s.Close()
	payload := make([]byte, 1024)
	buf := make([]byte, 2048)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameModule(b *testing.B) {
	// The marshaling module's cost per message: what TCP transport
	// of 9P pays that IL does not.
	var s *Stream
	s = New(1<<30, func(blk *Block) { s.DeviceUp(blk) })
	defer s.Close()
	if err := s.PushName("frame", nil); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	buf := make([]byte, 2048)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}
