package urp

import (
	"io"
	"time"

	"repro/internal/block"
	"repro/internal/vclock"
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

// delivering is a test wire that hands what arrives to a function, as a
// Datakit circuit end hands it to Input.
type delivering interface {
	Wire
	Receive(input func(cell []byte, err error))
}

// attach starts URP on w, with w delivering to it from the start.
func attach(w delivering, stats *Stats, ck vclock.Clock) *Conn {
	c := new(Conn)
	c.Init(w, stats, ck)
	w.Receive(c.Input)
	return c
}
