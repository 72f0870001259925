package streams

import (
	"slices"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestPutbackWakesSecondReader: two readers share one stream, both
// waiting before anything arrives. One message comes; the first reader
// reads it short, and the rest of the block goes back to the top of
// the stream. The second reader must get that rest with no further
// traffic: the block it waits for is already readable.
func TestPutbackWakesSecondReader(t *testing.T) {
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
				buf := make([]byte, 4)
				n, err := s.Read(buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = append(got, string(buf[:n])) // one process runs at a time
			})
		}
		// Both readers park before the sleep ends: the virtual clock
		// moves only once every goroutine is parked.
		v.Sleep(50 * time.Millisecond)
		upData(s, []byte("headrest"))
		readers.Wait()
	})
	if !slices.Equal(got, []string{"head", "rest"}) {
		t.Fatalf("the two readers got %q, want the message's two halves in order", got)
	}
}
