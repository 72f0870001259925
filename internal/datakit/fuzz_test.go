package datakit

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/medium"
	"repro/internal/vclock"
)

// crcRef is CRC-16/CCITT (polynomial 0x1021, initial register 0, no
// reflection) a bit at a time: the reference the table-driven crc16
// must equal.
func crcRef(p []byte) uint16 {
	var crc uint16
	for _, b := range p {
		crc ^= uint16(b) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// framed appends p's FCS, as SendCell does on an impaired circuit.
func framed(p []byte) []byte {
	fcs := crcRef(p)
	return append(append([]byte(nil), p...), byte(fcs>>8), byte(fcs))
}

// FuzzCellFCS feeds any bytes, as a cell off the wire, to the receive
// side's FCS check on an impaired circuit. The check must not panic,
// must accept a cell exactly when its last two bytes are the reference
// CRC of the rest, must hand on the rest unchanged, and must count each
// cell it discards; crc16 must equal the reference on every input.
func FuzzCellFCS(f *testing.F) {
	if got := crcRef([]byte("123456789")); got != 0x31c3 {
		f.Fatalf("reference CRC of the check string = %#04x, want 0x31c3", got)
	}
	f.Add([]byte{})
	f.Add([]byte{0x5a})
	f.Add([]byte{0, 0}) // an empty cell's FCS
	f.Add(framed([]byte("one cell")))
	f.Add(framed([]byte("a cell past one slice of eight bytes")))
	damaged := framed([]byte("a damaged cell"))
	damaged[3] ^= 0x10
	f.Add(damaged)
	f.Add([]byte("no FCS at all"))

	v := vclock.NewVirtual()
	d, peer := medium.NewDuplex(medium.Profile{Clock: v, Impair: medium.Impairment{Record: true}})
	f.Cleanup(func() { v.Run(func() { d.Close(); peer.Close() }) })
	var errs atomic.Int64
	w := &end{d: d, errs: &errs}
	if !d.Impaired() {
		f.Fatal("the circuit is not impaired, so nothing checks the FCS")
	}

	f.Fuzz(func(t *testing.T, cell []byte) {
		if got, want := crc16(cell), crcRef(cell); got != want {
			t.Fatalf("crc16(% x) = %#04x, reference %#04x", cell, got, want)
		}
		n := len(cell) - fcsLen
		want := n >= 0 && crcRef(cell[:n]) == uint16(cell[n])<<8|uint16(cell[n+1])
		before := errs.Load()
		body, ok := w.check(cell)
		if ok != want {
			t.Fatalf("check(% x) accepted %v, want %v", cell, ok, want)
		}
		if ok && !bytes.Equal(body, cell[:n]) {
			t.Fatalf("check(% x) handed on % x, want % x", cell, body, cell[:n])
		}
		counted := errs.Load() - before
		if ok && counted != 0 || !ok && counted != 1 {
			t.Fatalf("check(% x) counted %d errors, accepted %v", cell, counted, ok)
		}
	})
}
