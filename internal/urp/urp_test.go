package urp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/vclock"
)

// wire carries cells out on tx and takes them in from rx, as a Datakit
// circuit end does without the FCS: the two pipes of one duplex, or
// two unrelated pipes for a one-way test.
type wire struct{ tx, rx *medium.Pipe }

func (w wire) SendCell(p []byte) time.Time       { return w.tx.Put(p) }
func (w wire) Receive(input func([]byte, error)) { w.rx.Receive(input) }
func (w wire) Close() error                      { w.tx.Close(); w.rx.Close(); return nil }

func pair(t *testing.T, p medium.Profile) (*Conn, *Conn, *Stats) {
	t.Helper()
	ab, ba := medium.NewPipe(p), medium.NewPipe(p)
	stats := &Stats{}
	ca := attach(wire{ab, ba}, stats, vclock.Real)
	cb := attach(wire{ba, ab}, stats, vclock.Real)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb, stats
}

func TestEcho(t *testing.T) {
	a, b, _ := pair(t, medium.Profile{})
	a.Write([]byte("urp message"))
	buf := make([]byte, 256)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "urp message" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	b.Write([]byte("response"))
	n, err = a.Read(buf)
	if err != nil || string(buf[:n]) != "response" {
		t.Fatalf("response %q, %v", buf[:n], err)
	}
}

func TestWindowBlocksSender(t *testing.T) {
	// With the receiver's pipe stalled (no reads by anyone — use a
	// one-way wire that swallows acks), the sender must block after
	// Window blocks. On the virtual clock "block" is provable cheaply:
	// two full simulated seconds pass — forty enquiry timeouts, yet
	// well under the thirty-second death timer — and the writer still
	// has not finished. (t.Error, not t.Fatal, inside Run: Goexit from
	// a machine goroutine would hang the scheduler.)
	v := vclock.NewVirtual()
	v.Run(func() {
		tx := medium.NewPipe(medium.Profile{Clock: v})
		silent := medium.NewPipe(medium.Profile{Clock: v}) // acks never come back
		a := attach(wire{tx, silent}, nil, v)
		defer a.Close()
		done := make(chan int, 1)
		v.Go(func() {
			n := 0
			for range Window + 2 {
				if _, err := a.Write(bytes.Repeat([]byte("x"), BlockSize)); err != nil {
					break
				}
				n++
			}
			done <- n
		})
		v.Sleep(2 * time.Second)
		select {
		case n := <-done:
			t.Errorf("sender never blocked: wrote %d blocks", n)
		default:
		}
	})
}

func TestSequencedDeliveryUnderLoss(t *testing.T) {
	a, b, stats := pair(t, medium.Profile{Loss: 0.1, Seed: 9})
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	var got [][]byte
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for len(got) < rounds {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
	}()
	for i := range rounds {
		a.Write(bytes.Repeat([]byte{byte(i)}, 200))
	}
	wg.Wait()
	if len(got) != rounds {
		t.Fatalf("got %d of %d messages", len(got), rounds)
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	_ = stats
}

// TestHangup: a close reaches the peer, whose next read fails and
// marks it dead.
func TestHangup(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		ab, ba := medium.NewPipe(medium.Profile{Clock: v}), medium.NewPipe(medium.Profile{Clock: v})
		a := attach(wire{ab, ba}, &Stats{}, v)
		b := attach(wire{ba, ab}, &Stats{}, v)
		defer b.Close()
		a.Write([]byte("bye"))
		buf := make([]byte, 64)
		b.Read(buf)
		a.Close()
		if n, err := b.Read(buf); err == nil {
			t.Errorf("read %q after the peer hung up, want an error", buf[:n])
		} else if !b.Dead() {
			t.Error("Dead() false after hangup read error")
		}
	})
}

// TestFullReaderStallsTheWindow: URP's receiver runs on the wire's
// clock event and never parks. A reader that stops lets its stream fill
// to the limit; the receiver then refuses the next message's first
// cell, acknowledging nothing, so the sender stalls at its window,
// probing every 52 ms: an enquiry 50 ms after its last send, whose
// answer, a round trip later, has it resend the window into the full
// stream. Once the reader drains, the next enquiry's answer has the
// window resent, and every byte arrives, in order.
func TestFullReaderStallsTheWindow(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		p := medium.Profile{Latency: time.Millisecond, Clock: v}
		ab, ba := medium.NewPipe(p), medium.NewPipe(p)
		stats := &Stats{}
		a := attach(wire{ab, ba}, stats, v)
		b := attach(wire{ba, ab}, &Stats{}, v)
		defer b.Close()
		defer a.Close()
		const size, total = Window * BlockSize, 700 // 4.9 MB, past the stream's 4 MiB
		msg := func(i int) []byte {
			m := bytes.Repeat([]byte{byte(i)}, size)
			m[0], m[1] = byte(i>>8), byte(i)
			return m
		}
		written := 0
		v.Go(func() {
			for i := range total {
				if _, err := a.Write(msg(i)); err != nil {
					return
				}
				written++
			}
		})
		v.Sleep(5 * time.Second)
		stalled, enq := written, stats.Enquiries.Load()
		v.Sleep(time.Second)
		queued := b.Stream().QueuedBytes() / size
		if written != stalled || !b.Stream().Full() || len(a.unacked) != Window || stats.Enquiries.Load() <= enq {
			t.Errorf("after 6 s: %d messages written (%d a second before), stream full %v, %d blocks unacked, %d enquiries (%d a second before); want the writer stalled at a full window, probing",
				written, stalled, b.Stream().Full(), len(a.unacked), stats.Enquiries.Load(), enq)
		}
		drained := v.Now()
		buf := make([]byte, size+1)
		var recovery time.Duration
		for i := range total {
			n, err := b.Read(buf)
			if err != nil || !bytes.Equal(buf[:n], msg(i)) {
				t.Errorf("message %d: %d bytes, %v; want %d bytes of it, in order", i, n, err, size)
				return
			}
			if i == queued {
				recovery = v.Since(drained)
			}
		}
		t.Logf("%d messages queued when the reader drained; the next arrived %v later", queued, recovery)
		// The drain at 6 s falls 6 ms before an enquiry; its answer has
		// the window resent 2 ms later, landing 1 ms after that.
		if queued != 586 || recovery != 9*time.Millisecond {
			t.Errorf("%d messages queued, the next %v after the drain; want 586, and 9ms (the next enquiry, its round trip and the resend's flight)", queued, recovery)
		}
	})
}
