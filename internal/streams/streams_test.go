package streams

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/block"
	"repro/internal/vclock"
)

// loopback wires a stream's device end back to its own input, so
// everything written comes back up.
func loopback(t *testing.T) *Stream {
	t.Helper()
	var s *Stream
	s = New(0, func(b *Block) { deliver(s, b) })
	t.Cleanup(func() { s.Close() })
	return s
}

// crossPair returns two streams wired to each other, a bidirectional
// pipe built from two streams.
func crossPair(t *testing.T) (*Stream, *Stream) {
	t.Helper()
	var a, b *Stream
	a = New(0, func(blk *Block) { deliver(b, blk) })
	b = New(0, func(blk *Block) { deliver(a, blk) })
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// deliver is a pipe end's device: it takes credit for b on s, parking
// the writer while s holds its limit, and delivers b there; once s is
// gone it frees b.
func deliver(s *Stream, b *Block) {
	if s.Reserve(b.Len()) != nil {
		b.Free()
		return
	}
	s.Deliver(b)
}

// modules returns the names of the modules pushed on s, top first.
func modules(s *Stream) []string {
	s.cfg.RLock()
	defer s.cfg.RUnlock()
	var names []string
	for q := s.topWrite.next; q != &s.devWrite; q = q.next {
		names = append(names, q.qi.Name)
	}
	return names
}

// upData injects a copy of p at s's device end as one delimited
// message, as a device that only borrows its receive buffer does.
func upData(s *Stream, p []byte) {
	b := NewBlock(p)
	b.Delim = true
	deliver(s, b)
}

func TestWriteReadLoopback(t *testing.T) {
	s := loopback(t)
	if n, err := s.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("write = %d, %v", n, err)
	}
	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestReadStopsAtDelimiter(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("one"))
	s.Write([]byte("two"))
	buf := make([]byte, 64)
	n, _ := s.Read(buf)
	if string(buf[:n]) != "one" {
		t.Errorf("first read %q, want delimiter-bounded \"one\"", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "two" {
		t.Errorf("second read %q", buf[:n])
	}
}

func TestPartialBlockRemainderStaysQueued(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("abcdef"))
	buf := make([]byte, 2)
	n, _ := s.Read(buf)
	if string(buf[:n]) != "ab" {
		t.Fatalf("read %q", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "cd" {
		t.Fatalf("second read %q (remainder lost?)", buf[:n])
	}
	n, _ = s.Read(buf)
	if string(buf[:n]) != "ef" {
		t.Fatalf("third read %q", buf[:n])
	}
}

func TestLargeWriteSplitsAt32K(t *testing.T) {
	var blocks []*Block
	s := New(1<<20, func(b *Block) { blocks = append(blocks, b) })
	defer s.Close()
	defer func() {
		for _, b := range blocks {
			b.Free()
		}
	}()
	payload := bytes.Repeat([]byte("x"), MaxBlock+1000)
	s.Write(payload)
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2", len(blocks))
	}
	if blocks[0].Len() != MaxBlock || blocks[0].Delim {
		t.Errorf("first block len=%d delim=%v", blocks[0].Len(), blocks[0].Delim)
	}
	if blocks[1].Len() != 1000 || !blocks[1].Delim {
		t.Errorf("last block len=%d delim=%v", blocks[1].Len(), blocks[1].Delim)
	}
}

func TestSingleBlockWriteIsAtomic(t *testing.T) {
	// A write of <= 32K is one block, so concurrent writers cannot
	// interleave within it.
	var mu sync.Mutex
	var sizes []int
	s := New(1<<24, func(b *Block) {
		mu.Lock()
		sizes = append(sizes, b.Len())
		mu.Unlock()
		b.Free()
	})
	defer s.Close()
	var wg sync.WaitGroup
	for range 10 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				s.Write(bytes.Repeat([]byte("y"), 1000))
			}
		}()
	}
	wg.Wait()
	for _, n := range sizes {
		if n != 1000 {
			t.Fatalf("interleaved block of %d bytes", n)
		}
	}
	if len(sizes) != 500 {
		t.Errorf("%d blocks, want 500", len(sizes))
	}
}

func TestHangupDrainsThenEOF(t *testing.T) {
	s := loopback(t)
	s.Write([]byte("last words"))
	s.HangupUp()
	buf := make([]byte, 64)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Errorf("post-hangup read err = %v, want EOF", err)
	}
	if _, err := s.Write([]byte("x")); err != ErrHungup {
		t.Errorf("post-hangup write err = %v", err)
	}
}

func TestHangupViaCtl(t *testing.T) {
	s := loopback(t)
	if err := s.WriteCtl("hangup"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after ctl hangup = %v", err)
	}
}

func TestBlockedReaderWokenByClose(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := NewClock(0, v, nil)
		done := vclock.NewMailbox[error](v, 1)
		v.Go(func() {
			_, err := s.Read(make([]byte, 1))
			done.Send(err)
		})
		v.Sleep(5 * time.Millisecond)
		s.Close()
		v.Sleep(time.Second)
		err, ok := done.TryRecv()
		if !ok {
			t.Error("reader not woken by close")
		} else if err != ErrClosed {
			t.Errorf("reader error = %v", err)
		}
	})
}

func TestFlowControlBlocksWriters(t *testing.T) {
	// Loopback with a tiny limit: the writer must block once the
	// read queue is full, and resume when the reader drains.
	v := vclock.NewVirtual()
	v.Run(func() {
		var s *Stream
		s = NewClock(10, v, func(b *Block) { deliver(s, b) })
		defer s.Close()
		wrote := vclock.NewMailbox[bool](v, 1)
		v.Go(func() {
			s.Write([]byte("0123456789")) // fills the queue
			s.Write([]byte("abcdefghij")) // must block
			wrote.Send(true)
		})
		v.Sleep(20 * time.Millisecond)
		if _, ok := wrote.TryRecv(); ok {
			t.Error("writer did not block on full queue")
			return
		}
		// Drain and let the writer finish.
		buf := make([]byte, 10)
		s.Read(buf)
		v.Sleep(time.Second)
		if _, ok := wrote.TryRecv(); !ok {
			t.Error("writer not resumed after drain")
		}
	})
}

func TestPushPopModules(t *testing.T) {
	a, b := crossPair(t)
	var stats *TraceStats
	if err := a.Push(traceModule, &stats); err != nil {
		t.Fatal(err)
	}
	if got := modules(a); len(got) != 1 || got[0] != "trace" {
		t.Fatalf("modules %v", got)
	}
	a.Write([]byte("12345"))
	buf := make([]byte, 16)
	n, _ := b.Read(buf)
	if string(buf[:n]) != "12345" {
		t.Fatalf("through-module read %q", buf[:n])
	}
	b.Write([]byte("xyz"))
	n, _ = a.Read(buf)
	if string(buf[:n]) != "xyz" {
		t.Fatalf("reverse read %q", buf[:n])
	}
	if stats.OutBytes.Load() != 5 || stats.InBytes.Load() != 3 {
		t.Errorf("trace counters out=%d in=%d", stats.OutBytes.Load(), stats.InBytes.Load())
	}
	if err := a.Pop(); err != nil {
		t.Fatal(err)
	}
	if len(modules(a)) != 0 {
		t.Error("module list not empty after pop")
	}
	if err := a.Pop(); err != ErrNothingToPop {
		t.Errorf("extra pop = %v", err)
	}
}

func TestPushViaCtl(t *testing.T) {
	s := loopback(t)
	if err := s.WriteCtl("push trace"); err != nil {
		t.Fatal(err)
	}
	if got := modules(s); len(got) != 1 || got[0] != "trace" {
		t.Errorf("modules after ctl push: %v", got)
	}
	if err := s.WriteCtl("pop"); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCtl("push nosuchmodule"); err != ErrUnknownMod {
		t.Errorf("unknown push = %v", err)
	}
}

func TestFrameModuleRestoresDelimiters(t *testing.T) {
	// Simulate a TCP-like byte pipe that merges and splits blocks
	// arbitrarily, with a frame module on each side.
	var a, b *Stream
	reframe := func(dst **Stream) DeviceFunc {
		return func(blk *Block) {
			// Deliver byte-at-a-time: worst-case fragmentation,
			// no delimiters survive.
			for _, c := range blk.Bytes() {
				nb := NewBlock([]byte{c})
				deliver(*dst, nb)
			}
			blk.Free()
		}
	}
	a = New(1<<20, reframe(&b))
	b = New(1<<20, reframe(&a))
	defer a.Close()
	defer b.Close()
	if err := a.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.PushName("frame", nil); err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("first message"))
	a.Write([]byte("second"))
	buf := make([]byte, 64)
	n, _ := b.Read(buf)
	if string(buf[:n]) != "first message" {
		t.Errorf("first framed read %q", buf[:n])
	}
	n, _ = b.Read(buf)
	if string(buf[:n]) != "second" {
		t.Errorf("second framed read %q", buf[:n])
	}
}

func TestCtlBlocksSkippedByRead(t *testing.T) {
	s := loopback(t)
	s.Produce(NewCtlBlock("module-specific"))
	s.Write([]byte("data"))
	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "data" {
		t.Errorf("read past ctl block: %q, %v", buf[:n], err)
	}
}

// A short read puts the rest of its block back at the top of the
// stream, ahead of what the device queued after it, and QueuedBytes
// counts both lists.
func TestQueuedBytesAndPutbackOrder(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	buf := make([]byte, 16)
	if b, err := s.next(false); b != nil || err != nil || s.QueuedBytes() != 0 {
		t.Fatalf("empty stream: next = %v, %v; QueuedBytes %d", b, err, s.QueuedBytes())
	}
	upData(s, []byte("ab"))
	upData(s, []byte("c"))
	if q := s.QueuedBytes(); q != 3 {
		t.Errorf("QueuedBytes = %d, want 3", q)
	}
	if n, err := s.Read(buf[:1]); err != nil || string(buf[:n]) != "a" {
		t.Fatalf("short read %q, %v", buf[:n], err)
	}
	if q := s.QueuedBytes(); q != 2 {
		t.Errorf("after a short read QueuedBytes = %d, want 2 (the rest at the top, c below)", q)
	}
	for _, want := range []string{"b", "c"} {
		if n, err := s.Read(buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
		}
	}
	if q := s.QueuedBytes(); q != 0 {
		t.Errorf("drained stream QueuedBytes = %d", q)
	}
}

// Reserve is a sender's credit: it counts what is still on the line
// beside what the device end holds, and parks the sender, not the
// line, once the two reach the limit; Deliver queues past the limit,
// refusing nothing; a read makes room, and a hangup ends the wait.
func TestReserveCountsWhatIsOnTheLine(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := NewClock(10, v, nil)
		defer s.Close()
		if s.Reserve(6) != nil || s.Reserve(6) != nil {
			t.Error("two reservations under the limit failed")
		}
		granted := 0
		var err error
		v.Go(func() {
			for err == nil {
				if err = s.Reserve(1); err == nil {
					granted++
				}
			}
		})
		v.Sleep(time.Second)
		for _, p := range []string{"abcdef", "ghijkl"} {
			b := NewBlock([]byte(p))
			b.Delim = true
			s.Deliver(b)
		}
		v.Sleep(time.Second)
		if granted != 0 || s.QueuedBytes() != 12 {
			t.Errorf("with 12 bytes on the line and then queued: %d more granted, %d queued; want 0 and 12", granted, s.QueuedBytes())
		}
		buf := make([]byte, 8)
		s.Read(buf)
		v.Sleep(time.Second)
		if granted != 4 {
			t.Errorf("a read of 6 of 12 queued bytes granted %d more bytes, want 4: 6 queued and 4 on the line make the limit", granted)
		}
		s.HangupUp()
		v.Sleep(time.Second)
		if err != ErrHungup {
			t.Errorf("the parked sender woke from the hangup with %v, want ErrHungup", err)
		}
	})
}

// Produce refuses exactly where Reserve would park with nothing on the
// line: while the device end holds the limit, unread, and the stream is
// neither hung up nor closed. A refused block is freed; what the reader
// carried up no longer counts against the device end.
func TestProduceRefusesWhereReserveWouldPark(t *testing.T) {
	before := block.Snapshot().InFlight
	s := New(4, nil)
	buf := make([]byte, 8)
	produce := func(p string) bool {
		b := NewBlock([]byte(p))
		b.Delim = true
		return s.Produce(b)
	}
	if !produce("abc") || s.Full() {
		t.Fatal("3 bytes under a limit of 4: refused, or Full")
	}
	if !produce("de") || !s.Full() {
		t.Fatal("the put that reaches the limit is queued, and then Full")
	}
	if produce("f") {
		t.Fatal("Produce queued on a full stream")
	}
	if q := s.QueuedBytes(); q != 5 {
		t.Errorf("QueuedBytes = %d, want 5: the refused byte is not queued", q)
	}
	if n, err := s.Read(buf[:1]); err != nil || string(buf[:n]) != "a" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	if s.Full() || !produce("g") {
		t.Error("a block the reader carried up still counts against the device end")
	}
	for _, want := range []string{"bc", "de", "g"} {
		if n, err := s.Read(buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
		}
	}
	produce("hijk")
	s.HangupUp()
	if s.Full() || !produce("l") {
		t.Error("a hung-up stream refuses: Reserve would not park there")
	}
	s.Close()
	if s.Full() || !produce("m") {
		t.Error("a closed stream refuses: Reserve would not park there")
	}
	if after := block.Snapshot().InFlight; after != before {
		t.Errorf("blocks in flight %d -> %d: a refused or discarded block was not freed", before, after)
	}
}

// A block fanned out by Ref is read-only, and the queue link is part of
// it: queueing one would thread it onto every holder's list at once.
// The put that refuses it lets go of the queue's lock on the way out,
// so the process that recovers parks with no Lock held and can still
// close the stream.
func TestDeliverOfSharedBlockPanics(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := NewClock(0, v, nil)
		b := NewBlock([]byte("shared"))
		b.Ref()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Deliver queued a block with two references")
				}
			}()
			s.Deliver(b)
		}()
		b.Free()
		b.Free()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("a park after a Deliver that panicked: %v", r)
			}
		}()
		v.Sleep(time.Millisecond)
		s.Close()
	})
}

func TestReadContiguityUnderConcurrency(t *testing.T) {
	// The per-stream read lock guarantees the bytes each reader gets
	// are contiguous bytes from the stream. Write numbered 100-byte
	// records; concurrent readers each reading 100 bytes must see
	// whole records.
	v := vclock.NewVirtual()
	v.Run(func() {
		var s *Stream
		s = NewClock(1<<20, v, func(b *Block) { deliver(s, b) })
		defer s.Close()
		const records = 200
		v.Go(func() {
			for i := range records {
				rec := bytes.Repeat([]byte{byte(i)}, 100)
				s.Write(rec)
			}
		})
		var mu sync.Mutex
		got := make(map[byte]bool)
		// complete carries true once every record has been seen, or
		// false from the watchdog.
		complete := vclock.NewMailbox[bool](v, 1)
		watchdog := v.AfterFunc(10*time.Second, func() { complete.TrySend(false) })
		defer watchdog.Stop()
		wg := vclock.NewWaitGroup(v)
		for range 4 {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				buf := make([]byte, 100)
				for {
					n, err := s.Read(buf)
					if err != nil || n == 0 {
						return // stream closed: we are done
					}
					if n != 100 {
						t.Errorf("torn read of %d bytes", n)
						return
					}
					for _, c := range buf[1:n] {
						if c != buf[0] {
							t.Error("non-contiguous bytes in one read")
							return
						}
					}
					mu.Lock()
					got[buf[0]] = true
					if len(got) == records {
						complete.TrySend(true)
					}
					mu.Unlock()
				}
			})
		}
		// When every record has been seen, close the stream to release
		// any reader still blocked waiting for more data.
		if ok, _ := complete.Recv(); !ok {
			t.Error("records never all arrived")
		}
		s.Close()
		wg.Wait()
	})
}

// Property: any sequence of writes is read back intact and in order.
func TestStreamByteTransparencyQuick(t *testing.T) {
	f := func(chunks [][]byte) bool {
		s := loopbackQuiet()
		defer s.Close()
		var want []byte
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			want = append(want, c...)
			if _, err := s.Write(c); err != nil {
				return false
			}
		}
		got := make([]byte, 0, len(want))
		buf := make([]byte, 4096)
		for len(got) < len(want) {
			n, err := s.Read(buf)
			if err != nil || n == 0 {
				return false
			}
			got = append(got, buf[:n]...)
		}
		return bytes.Equal(got, want)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func loopbackQuiet() *Stream {
	var s *Stream
	s = New(1<<24, func(b *Block) { deliver(s, b) })
	return s
}
