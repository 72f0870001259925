package streams

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// devSink collects everything that reaches the device end.
type devSink struct {
	mu     sync.Mutex
	blocks [][]byte
}

func (d *devSink) put(b *Block) {
	d.mu.Lock()
	if b.Type == BlockData {
		d.blocks = append(d.blocks, append([]byte(nil), b.Bytes()...))
	}
	d.mu.Unlock()
	b.Free()
}

func (d *devSink) snapshot() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.blocks...)
}

// unframe splits a batch wire block back into its framed messages.
func unframe(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	var msgs [][]byte
	for len(wire) > 0 {
		if len(wire) < 4 {
			t.Fatalf("trailing %d bytes are not a frame", len(wire))
		}
		n := int(binary.BigEndian.Uint32(wire))
		if len(wire) < 4+n {
			t.Fatalf("frame declares %d bytes, only %d present", n, len(wire)-4)
		}
		msgs = append(msgs, wire[4:4+n])
		wire = wire[4+n:]
	}
	return msgs
}

func moduleSnapshot(t *testing.T, s *Stream) map[string]int64 {
	t.Helper()
	all := map[string]int64{}
	for _, g := range s.ModuleStats() {
		for k, v := range g.Snapshot() {
			all[k] = v
		}
	}
	return all
}

// parseStatsText round-trips the rendered module stats the way a
// stats-file reader would.
func parseStatsText(s *Stream) map[string]int64 {
	var text string
	for _, g := range s.ModuleStats() {
		text += g.Render()
	}
	return obs.ParseStats(text)
}

func TestBatchCoalescesUntilCap(t *testing.T) {
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 64 1h"); err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{
		[]byte("Tversion"), []byte("Tauth"), []byte("Tattach-attach"),
		[]byte("Twalk Twalk Twalk Twalk"), []byte("Topen!"),
	}
	for _, m := range msgs {
		if _, err := s.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	// Total framed bytes cross the 64-byte cap partway through, so the
	// flush is cap-driven — no timer involved at a 1h delay.
	blocks := sink.snapshot()
	if len(blocks) == 0 {
		t.Fatal("cap crossed but nothing flushed")
	}
	s.Close() // drain the tail through the pop path
	var got [][]byte
	for _, w := range sink.snapshot() {
		got = append(got, unframe(t, w)...)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, wrote %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d diverges", i)
		}
	}
	if n := len(sink.snapshot()); n >= len(msgs) {
		t.Fatalf("%d wire blocks for %d messages: nothing coalesced", n, len(msgs))
	}
}

func TestBatchStatsIdentities(t *testing.T) {
	sink := &devSink{}
	s := New(0, sink.put)
	if err := s.WriteCtl("push batch 128 1h"); err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 23; i++ {
		m := bytes.Repeat([]byte{byte(i)}, 11+i)
		want += int64(len(m))
		if _, err := s.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	stats := parseStatsText(s) // snapshot via the rendered text, as a file reader sees it
	if stats["batch-blocks-in"] != 23 || stats["batch-msgs-in"] != 23 {
		t.Fatalf("in counters: %+v", stats)
	}
	// Leave a small message pending so the close path must drain it.
	if _, err := s.Write([]byte("tail!")); err != nil {
		t.Fatal(err)
	}
	want += 5
	groups := s.ModuleStats() // groups outlive the pop below
	s.Close()
	stats = map[string]int64{}
	for _, g := range groups {
		for k, v := range g.Snapshot() {
			stats[k] = v
		}
	}
	// Identity 1: every wire block has exactly one flush cause.
	causes := stats["batch-flush-cap"] + stats["batch-flush-timer"] +
		stats["batch-flush-ctl"] + stats["batch-flush-hangup"] + stats["batch-flush-pop"]
	if causes != stats["batch-wire-blocks"] {
		t.Fatalf("flush causes %d != wire blocks %d", causes, stats["batch-wire-blocks"])
	}
	// Identity 2: wire bytes are input bytes plus 4 per message framed.
	if stats["batch-wire-bytes"] != want+4*stats["batch-msgs-in"] {
		t.Fatalf("wire bytes %d != in %d + 4*msgs %d", stats["batch-wire-bytes"], want, stats["batch-msgs-in"])
	}
	if stats["batch-flush-pop"] == 0 {
		t.Fatal("close must flush the tail through the pop drain")
	}
}

func TestBatchTimerFlushVirtual(t *testing.T) {
	// On the virtual clock the max-delay flush is exact and
	// deterministic: one message, below cap, flushes at precisely the
	// configured delay.
	v := vclock.NewVirtual()
	sink := &devSink{}
	v.Run(func() {
		s := NewClock(0, v, sink.put)
		if err := s.WriteCtl("push batch 4096 3ms"); err != nil {
			t.Error(err)
			return
		}
		start := v.Now()
		if _, err := s.Write([]byte("lonely small message")); err != nil {
			t.Error(err)
			return
		}
		if n := len(sink.snapshot()); n != 0 {
			t.Errorf("flushed %d blocks before the delay", n)
		}
		v.Sleep(5 * time.Millisecond)
		if el := v.Since(start); el < 3*time.Millisecond {
			t.Errorf("woke early: %v", el)
		}
		if n := len(sink.snapshot()); n != 1 {
			t.Errorf("timer flushed %d blocks, want 1", n)
		}
		st := moduleSnapshot(t, s)
		if st["batch-flush-timer"] != 1 {
			t.Errorf("flush-timer %d, want 1", st["batch-flush-timer"])
		}
		s.Close()
	})
	got := unframe(t, sink.snapshot()[0])
	if len(got) != 1 || string(got[0]) != "lonely small message" {
		t.Fatalf("bad flush contents: %q", got)
	}
}

func TestBatchCtlIsFlushBarrier(t *testing.T) {
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 4096 1h"); err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("pending data"))
	if err := s.WriteCtl("mtu 576"); err != nil { // an arbitrary module ctl
		t.Fatal(err)
	}
	if n := len(sink.snapshot()); n != 1 {
		t.Fatalf("ctl crossed %d data blocks, want the 1 flushed window", n)
	}
	st := moduleSnapshot(t, s)
	if st["batch-flush-ctl"] != 1 {
		t.Fatalf("flush-ctl %d, want 1", st["batch-flush-ctl"])
	}
}

func TestBatchBigMessageFastpath(t *testing.T) {
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 512 1h"); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 8000)
	if _, err := s.Write(big); err != nil {
		t.Fatal(err)
	}
	blocks := sink.snapshot()
	if len(blocks) != 1 {
		t.Fatalf("big message produced %d wire blocks, want immediate single flush", len(blocks))
	}
	got := unframe(t, blocks[0])
	if len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatal("big message mangled")
	}
}

func TestBatchMultiBlockMessage(t *testing.T) {
	// A message larger than MaxBlock spans several stream blocks; the
	// batch must frame the whole message once, not per block.
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 128 1h"); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("abcdefgh"), (MaxBlock+5000)/8)
	if _, err := s.Write(big); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var got [][]byte
	for _, w := range sink.snapshot() {
		got = append(got, unframe(t, w)...)
	}
	if len(got) != 1 || !bytes.Equal(got[0], big) {
		t.Fatalf("multi-block message: %d frames", len(got))
	}
}

func TestBatchSplitterRestoresBoundaries(t *testing.T) {
	// Upstream: a batched wire stream re-split under every chunking.
	var wire []byte
	msgs := [][]byte{[]byte("alpha"), []byte("bb"), bytes.Repeat([]byte("c"), 300), []byte("dddd")}
	for _, m := range msgs {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(m)))
		wire = append(wire, hdr[:]...)
		wire = append(wire, m...)
	}
	for chunk := 1; chunk <= len(wire); chunk += 7 {
		s := New(0, nil)
		if err := s.WriteCtl("push batch"); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(wire); off += chunk {
			end := off + chunk
			if end > len(wire) {
				end = len(wire)
			}
			upData(s, wire[off:end])
		}
		for i, want := range msgs {
			buf := make([]byte, len(wire))
			n, err := s.Read(buf)
			if err != nil {
				t.Fatalf("chunk %d msg %d: %v", chunk, i, err)
			}
			if !bytes.Equal(buf[:n], want) {
				t.Fatalf("chunk %d msg %d: got %d bytes want %d", chunk, i, n, len(want))
			}
		}
		st := moduleSnapshot(t, s)
		if st["batch-split-frames"] != int64(len(msgs)) {
			t.Fatalf("chunk %d: split %d frames", chunk, st["batch-split-frames"])
		}
		s.Close()
	}
}

func TestBatchSplitterStrict(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	if err := s.WriteCtl("push batch"); err != nil {
		t.Fatal(err)
	}
	// A frame length the coalescer could never emit poisons the stream:
	// readers see EOF, not garbage.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(batchMaxMsg+1))
	upData(s, hdr[:])
	buf := make([]byte, 64)
	if _, err := s.Read(buf); err == nil {
		t.Fatal("read succeeded past a poisoned splitter")
	}
	st := moduleSnapshot(t, s)
	if st["batch-errs"] != 1 {
		t.Fatalf("errs %d, want 1", st["batch-errs"])
	}
}

func TestBatchOversizeWriteHangsUp(t *testing.T) {
	// The coalescer's side of strictness: a message longer than any
	// frame may be is one error, and it hangs the stream up instead of
	// sending a frame the peer's splitter would refuse.
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 128 1h"); err != nil {
		t.Fatal(err)
	}
	s.Write(make([]byte, batchMaxMsg+1))
	buf := make([]byte, 64)
	if _, err := s.Read(buf); err == nil {
		t.Fatal("read succeeded on a stream the coalescer hung up")
	}
	s.Write([]byte("after"))
	if n := len(sink.snapshot()); n != 0 {
		t.Fatalf("%d wire blocks left a failed coalescer, want 0", n)
	}
	if st := moduleSnapshot(t, s); st["batch-errs"] != 1 {
		t.Fatalf("errs %d, want 1", st["batch-errs"])
	}
}

func TestBatchArgParsing(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	for _, bad := range []string{"push batch zero", "push batch 0", "push batch 12 nope", "push batch 12 2ms extra"} {
		if err := s.WriteCtl(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := s.WriteCtl("push batch 4096 250us"); err != nil {
		t.Fatal(err)
	}
	if mods := modules(s); len(mods) != 1 || mods[0] != "batch" {
		t.Fatalf("modules: %v", mods)
	}
}

func TestBatchHangupFlushesPendingWindow(t *testing.T) {
	// The hangup-mid-window satellite: data sitting in the batch
	// window when the conversation hangs up must reach the device —
	// flushed, not leaked — and the reader must still drain to EOF.
	// The hangup runs through the modules on the reading process, so
	// the flush happens at the read that carries it up.
	sink := &devSink{}
	s := New(0, sink.put)
	if err := s.WriteCtl("push batch 4096 1h"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("caught in the window")); err != nil {
		t.Fatal(err)
	}
	if n := len(sink.snapshot()); n != 0 {
		t.Fatalf("premature flush: %d", n)
	}
	s.HangupUp()
	if _, err := s.Write([]byte("after hangup")); err == nil {
		t.Fatal("writer did not see the hangup")
	}
	if n := len(sink.snapshot()); n != 0 {
		t.Fatalf("the device end ran a module: %d blocks flushed before the read", n)
	}
	if _, err := s.Read(make([]byte, 16)); err == nil {
		t.Fatal("reader did not see the hangup")
	}
	blocks := sink.snapshot()
	if len(blocks) != 1 {
		t.Fatalf("hangup flushed %d blocks, want 1", len(blocks))
	}
	got := unframe(t, blocks[0])
	if len(got) != 1 || string(got[0]) != "caught in the window" {
		t.Fatal("pending window mangled by hangup flush")
	}
	st := moduleSnapshot(t, s)
	if st["batch-flush-hangup"] != 1 {
		t.Fatalf("flush-hangup %d, want 1", st["batch-flush-hangup"])
	}
	s.Close()
}

func TestBatchPopDrainOrdering(t *testing.T) {
	// Pop mid-conversation: the pending window must hit the wire
	// before any write issued after the pop returns.
	sink := &devSink{}
	s := New(0, sink.put)
	defer s.Close()
	if err := s.WriteCtl("push batch 4096 1h"); err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("first, batched"))
	if err := s.WriteCtl("pop"); err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("second, raw"))
	blocks := sink.snapshot()
	if len(blocks) != 2 {
		t.Fatalf("%d wire blocks, want flushed window then raw write", len(blocks))
	}
	got := unframe(t, blocks[0])
	if len(got) != 1 || string(got[0]) != "first, batched" {
		t.Fatal("pop did not drain the window first")
	}
	if string(blocks[1]) != "second, raw" {
		t.Fatalf("post-pop write mangled: %q", blocks[1])
	}
}

func TestBatchConcurrentWriters(t *testing.T) {
	// Many writers racing the coalescer: every message must come out
	// exactly once, intact (order across writers is unspecified, as in
	// the kernel).
	sink := &devSink{}
	s := New(0, sink.put)
	if err := s.WriteCtl("push batch 1024 1ms"); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := fmt.Sprintf("w%d-m%d|", w, i)
				if _, err := s.Write([]byte(msg)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	seen := map[string]int{}
	for _, wire := range sink.snapshot() {
		for _, m := range unframe(t, wire) {
			seen[string(m)]++
		}
	}
	if len(seen) != writers*per {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), writers*per)
	}
	for m, n := range seen {
		if n != 1 {
			t.Fatalf("message %q delivered %d times", m, n)
		}
	}
}

// A bad frame coming up must not race the writers going down: the
// splitter's poisoned flag is its own, under its own lock, and a writer
// learns of the bad frame from the hangup it causes. Real clock and a
// host goroutine, so the race detector sees the two sides on threads
// of their own; one round gives it one chance to see them overlap, so
// there are fifty.
func TestBatchBadFrameRacesWriter(t *testing.T) {
	for range 50 {
		badFrameRacesWriter(t)
	}
}

func badFrameRacesWriter(t *testing.T) {
	s := New(0, func(b *Block) { b.Free() })
	defer s.Close()
	if err := s.WriteCtl("push batch 64 1h"); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		msg := make([]byte, 100)
		for i := 0; ; i++ {
			if i == 16 {
				close(started)
			}
			if _, err := s.Write(msg); err != nil {
				done <- err
				return
			}
		}
	}()
	<-started
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], batchMaxMsg+1)
	upData(s, hdr[:])
	if n, err := s.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("Read = %d, %v; want EOF", n, err)
	}
	if err := <-done; err != ErrHungup {
		t.Fatalf("writer stopped with %v, want %v", err, ErrHungup)
	}
	if errs := moduleSnapshot(t, s)["batch-errs"]; errs != 1 {
		t.Fatalf("errs %d, want 1", errs)
	}
}

// Frames that arrive in one block ahead of a bad header still go up,
// in order, before the hangup: they were whole and valid.
func TestBatchFramesAheadOfBadHeaderGoUp(t *testing.T) {
	s := New(0, nil)
	defer s.Close()
	if err := s.WriteCtl("push batch"); err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for _, m := range []string{"first", "second"} {
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(m)))
		wire = append(wire, m...)
	}
	wire = binary.BigEndian.AppendUint32(wire, batchMaxMsg+1)
	upData(s, wire)
	buf := make([]byte, 64)
	for _, want := range []string{"first", "second"} {
		if n, err := s.Read(buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("Read = %q, %v; want %q", buf[:n], err, want)
		}
	}
	if n, err := s.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read = %d, %v; want EOF", n, err)
	}
}
