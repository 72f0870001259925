package streams

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestPutbackWakesSecondReader is the regression test for the missed
// wakeup in Queue.putback: with two readers sharing a queue, reader A
// can take a freshly enqueued block (barging past reader B, already
// parked in Get), consume part of it, and return the remainder with
// putback. putback must Broadcast like Enqueue does — without it, B
// sleeps on readable data until unrelated traffic arrives.
func TestPutbackWakesSecondReader(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		s := NewClock(0, v, nil)
		defer s.Close()
		q := s.topRead

		type result struct {
			b   *Block
			err error
		}
		got := vclock.NewMailbox[result](v, 1)
		v.Go(func() {
			b, err := q.Get() // reader B
			got.Send(result{b, err})
		})
		// B parks on the empty queue before the sleep ends: the
		// virtual clock moves only once every goroutine is parked.
		v.Sleep(50 * time.Millisecond)

		// Reader A re-heads the unconsumed tail of its block.
		rem := NewBlock([]byte("rest"))
		q.putback(rem)

		v.Sleep(2 * time.Second)
		r, ok := got.TryRecv()
		if !ok {
			t.Error("reader parked in Get missed the putback wakeup")
			return
		}
		if r.err != nil {
			t.Errorf("Get: %v", r.err)
			return
		}
		if s := string(r.b.Bytes()); s != "rest" {
			t.Errorf("Get = %q, want %q", s, "rest")
		}
		r.b.Free()
	})
}
