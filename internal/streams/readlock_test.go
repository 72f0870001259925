package streams

import (
	"slices"
	"testing"
	"time"

	"repro/internal/vclock"
)

// The per-stream read lock of §2.4.1 is held while its holder waits for
// data, so a second reader of the same data file has to queue through
// the clock. When the lock was a sync.Mutex, the second reader blocked
// in it holding the scheduler's token: the first could never be woken,
// the writer's Sleep never ended, and not even the deadlock panic fired
// — the run hung until the test timeout.
func TestTwoReadersShareOneStreamOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	var got []string
	v.Run(func() {
		s := NewClock(0, v, nil)
		defer s.Close()
		readers := vclock.NewWaitGroup(v)
		for range 2 {
			readers.Add(1)
			v.Go(func() {
				defer readers.Done()
				buf := make([]byte, 16)
				n, err := s.Read(buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = append(got, string(buf[:n])) // one process runs at a time
			})
		}
		// By now one reader waits for data with the read lock held and
		// the other waits for the lock.
		v.Sleep(time.Millisecond)
		for _, msg := range []string{"first", "second"} {
			b := NewBlock([]byte(msg))
			b.Delim = true
			s.DeviceUp(b)
		}
		readers.Wait()
	})
	if !slices.Equal(got, []string{"first", "second"}) {
		t.Fatalf("the two readers got %q, want one message each, in order", got)
	}
}
