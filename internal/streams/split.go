package streams

import (
	"repro/internal/block"
	"repro/internal/vclock"
)

// A splitter is the upstream half of a line discipline that frames its
// messages on the wire (batch, frame, compress): it reassembles the
// frames a transport split or merged arbitrarily and hands each whole
// one to its module. It is the only code in the package that buffers a
// partial frame. A module gives it two pieces, set when it opens:
//
//   - header reads the frame at the front of p: its whole length,
//     header included, or 0 while p is too short to tell; bad when no
//     frame can start with these bytes.
//   - frame turns a block holding exactly one whole frame into the
//     block to pass up, or returns nil when the frame is corrupt. It
//     owns the block it is given.
//
// A block that is exactly one frame, with nothing partial, is handed to
// frame as itself; a frame reassembled from pieces is copied once into
// a block of its own. A bad header or a corrupt frame poisons the
// splitter: it drops what is partial and everything after, and hangs
// the stream up at its device end, as every hangup enters, so a writer
// learns of it from the hangup.
type splitter struct {
	header func(p []byte) (n int, bad bool)
	frame  func(b *Block) *Block

	mu       vclock.Lock
	partial  []byte
	poisoned bool
}

// put carries b up through the splitter from q's place in the chain.
// It reports whether b poisoned the splitter.
func (sp *splitter) put(q *Queue, b *Block) (failed bool) {
	if b.Type != BlockData {
		if b.Type == BlockHangup {
			sp.mu.Lock()
			sp.partial = nil
			sp.mu.Unlock()
		}
		q.PutNext(b)
		return false
	}
	// The frames made go up once the lock is dropped, linked through
	// Next in order.
	var first, last *Block
	sp.mu.Lock()
	switch {
	case sp.poisoned:
		b.Free()
	case len(sp.partial) == 0 && sp.whole(b):
		first = sp.frame(b)
		failed = first == nil
	default:
		sp.partial = append(sp.partial, b.Bytes()...)
		b.Free()
		for len(sp.partial) > 0 {
			n, bad := sp.header(sp.partial)
			if bad {
				failed = true
				break
			}
			if n == 0 || len(sp.partial) < n {
				break
			}
			m := sp.frame(block.Copy(sp.partial[:n], 0))
			if m == nil {
				failed = true
				break
			}
			if last == nil {
				first = m
			} else {
				last.Next = m
			}
			last = m
			sp.partial = sp.partial[n:]
		}
	}
	if failed {
		sp.poisoned = true
		sp.partial = nil
	}
	sp.mu.Unlock()
	for first != nil {
		m := first
		first, m.Next = m.Next, nil
		q.PutNext(m)
	}
	if failed {
		q.Stream().HangupUp()
	}
	return failed
}

// whole reports whether b holds exactly one frame.
func (sp *splitter) whole(b *Block) bool {
	n, bad := sp.header(b.Bytes())
	return !bad && n > 0 && n == b.Len()
}
