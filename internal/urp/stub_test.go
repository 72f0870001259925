package urp

import (
	"io"
	"time"

	"repro/internal/block"
)

// stubWire is a Wire driven by hand: the cells a Conn sends go
// straight back to the pool, and deliver runs the Conn's input on the
// test's own goroutine, as a circuit's delay line would.
type stubWire struct {
	input func([]byte, error)
}

func (w *stubWire) SendCell(p []byte) time.Time { block.PutBytes(p); return time.Time{} }

func (w *stubWire) Receive(input func([]byte, error)) { w.input = input }

func (w *stubWire) Close() error { w.input(nil, io.EOF); return nil }

// deliver hands the Conn a pooled copy of cell, which it owns from
// then on.
func (w *stubWire) deliver(cell []byte) {
	p := block.GetBytes(len(cell))
	copy(p, cell)
	w.input(p, nil)
}
