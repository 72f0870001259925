package urp

import (
	"io"

	"repro/internal/block"
	"repro/internal/vclock"
)

// stubWire is a Wire driven by hand: the cells a Conn sends go
// straight back to the pool, and RecvCell hands over what the test
// queues on in.
type stubWire struct {
	in *vclock.Mailbox[[]byte]
}

func newStubWire(ck vclock.Clock) *stubWire {
	return &stubWire{in: vclock.NewMailbox[[]byte](ck, 0)}
}

func (w *stubWire) SendCell(p []byte) error { block.PutBytes(p); return nil }

func (w *stubWire) RecvCell() ([]byte, error) {
	p, ok := w.in.Recv()
	if !ok {
		return nil, io.EOF
	}
	return p, nil
}

func (w *stubWire) Close() error {
	for _, p := range w.in.CloseDrain() {
		block.PutBytes(p)
	}
	return nil
}

// deliver queues a pooled copy of cell for the Conn's reader, which
// owns it from then on.
func (w *stubWire) deliver(cell []byte) {
	p := block.GetBytes(len(cell))
	copy(p, cell)
	w.in.Send(p)
}
