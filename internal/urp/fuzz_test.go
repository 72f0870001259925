package urp

import (
	"bytes"
	"testing"

	"repro/internal/vclock"
)

// cellsOf splits fuzz input into cells, each a length byte and then
// that many bytes (fewer at the end of the input), so cells come out
// shorter than the header as well as past it.
func cellsOf(data []byte) [][]byte {
	var cells [][]byte
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		cells = append(cells, data[1:1+n])
		data = data[1+n:]
	}
	return cells
}

// cellSeed frames one cell the way sendCell does, prefixed with its
// length for cellsOf.
func cellSeed(typ, seq int, flags byte, data []byte) []byte {
	cell := append([]byte{byte(typ), byte(seq), flags, byte(len(data) >> 8), byte(len(data))}, data...)
	return append([]byte{byte(len(cell))}, cell...)
}

// FuzzRecv feeds arbitrary cells to a Conn with three blocks
// unacknowledged. Nothing may panic; the send window must stay
// consistent (one unacked entry per sequence number in [sndUna,
// sndNxt), in order) whatever acks, REJs and ENQs arrive; and the
// receiver must deliver exactly the payloads of the data cells that
// came in sequence, one message per EOM and nothing more, as the
// universal-receiver rule says.
func FuzzRecv(f *testing.F) {
	f.Add(cellSeed(cellAck, 2, 0, nil))
	f.Add(cellSeed(cellRej, 1, 0, nil))
	f.Add(cellSeed(cellEnq, 0, 0, nil))
	f.Add(cellSeed(cellData, 0, flagEOM, []byte("one cell")))
	f.Add(append(cellSeed(cellData, 0, 0, []byte("two ")), cellSeed(cellData, 1, flagEOM, []byte("cells"))...))
	f.Add(append(cellSeed(cellData, 3, flagEOM, []byte("out of order")), cellSeed(cellAck, 7, 0, nil)...))
	f.Add(append(cellSeed(cellData, 0, flagEOM, nil), cellSeed(cellHup, 0, 0, nil)...))
	f.Add([]byte{3, cellData, 0, flagEOM})            // shorter than the header
	f.Add([]byte{6, cellData, 0, flagEOM, 0, 9, 'x'}) // length past the cell
	f.Fuzz(func(t *testing.T, data []byte) {
		cells := cellsOf(data)
		// The receiver's rule, on its own: accept exactly the next
		// data cell in sequence, deliver on EOM, stop at a hangup.
		var want [][]byte
		var partial []byte
		next := 0
	model:
		for _, cell := range cells {
			if len(cell) < hdrLen {
				continue
			}
			n := int(cell[3])<<8 | int(cell[4])
			if n > len(cell)-hdrLen {
				continue
			}
			switch int(cell[0]) {
			case cellData:
				if int(cell[1]) != next {
					continue
				}
				next = (next + 1) % SeqMod
				partial = append(partial, cell[hdrLen:hdrLen+n]...)
				if cell[2]&flagEOM != 0 {
					want = append(want, partial)
					partial = nil
				}
			case cellHup:
				break model
			}
		}

		v := vclock.NewVirtual()
		v.Run(func() {
			w := &stubWire{}
			c := attach(w, nil, v)
			defer c.Close()
			for i := range 3 {
				if _, err := c.Write([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			for _, cell := range cells {
				w.deliver(cell)
			}

			c.mu.Lock()
			if got, inFlight := len(c.unacked), (c.sndNxt-c.sndUna+SeqMod)%SeqMod; got != inFlight || got > 3 {
				t.Errorf("%d blocks unacked, sndUna %d sndNxt %d", got, c.sndUna, c.sndNxt)
			}
			for i, b := range c.unacked {
				if b.seq != (c.sndUna+i)%SeqMod {
					t.Errorf("unacked[%d] is seq %d, sndUna %d", i, b.seq, c.sndUna)
				}
			}
			c.mu.Unlock()

			buf := make([]byte, len(data)+1)
			for i, msg := range want {
				n, err := c.Read(buf)
				if err != nil || !bytes.Equal(buf[:n], msg) {
					t.Errorf("message %d: read %q, %v; want %q", i, buf[:n], err, msg)
					return
				}
			}
			if n := c.rstream.QueuedBytes(); n != 0 {
				t.Errorf("%d bytes delivered beyond the in-sequence payloads", n)
			}
		})
	})
}
