package streams

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/obs"
)

// The compress module LZ-compresses every downstream data block's
// payload into a self-describing frame, and inverts it upstream. A
// frame is:
//
//	byte  0      magic (0xC5)
//	byte  1      flags: bit 0 method (0 stored, 1 lz), bit 1 delimiter
//	bytes 2-5    uncompressed length, big-endian
//	bytes 6-9    stored length, big-endian
//	bytes 10-    payload (stored length bytes)
//
// A block whose compressed form would not shrink goes out stored —
// the per-block incompressible passthrough — so the module never
// inflates payloads by more than the 10-byte header. The decoder is
// strict: a wrong magic, an unknown method, a declared length over the
// anti-bomb cap, or an expansion that does not consume its input
// exactly is an error that hangs the stream up, never an over-read.
// Both directions work in pooled buffers, and the upstream side is the
// package's splitter, so the module survives byte-stream transports
// that split or merge frames arbitrarily.
//
// The conversation is symmetric: both ends must push the module (in
// the same stack position), exactly like a real line discipline.

const (
	compressMagic   = 0xC5
	compressHdrLen  = 10
	cflagLZ         = 1 << 0
	cflagDelim      = 1 << 1
	compressMaxULen = lzMaxExpand
)

var compressModule = &Qinfo{
	Name: "compress",
	Open: compressOpen,
	Iput: compressIput,
	Oput: compressOput,
}

type compressState struct {
	// Downstream needs no buffer state: each block is framed on the
	// caller's goroutine. Upstream, the splitter reassembles.
	split splitter

	stats compressStats
	group *obs.Group
}

type compressStats struct {
	blocksIn, bytesIn     atomic.Int64 // downstream payload accepted
	wireBytes, savedBytes atomic.Int64 // stored lengths vs. what they saved
	hdrBytes              atomic.Int64 // framing overhead added
	passthrough           atomic.Int64 // blocks sent stored
	decFrames, decBytes   atomic.Int64 // upstream frames and ulen restored
	decWireBytes          atomic.Int64 // upstream stored bytes consumed
	decErrs               atomic.Int64
}

func compressOpen(q *Queue, arg any) error {
	if arg != nil {
		if s, ok := arg.(string); !ok || s != "" {
			return ErrBadModArg
		}
	}
	st := &compressState{}
	st.split.mu.Init(q.s.clk)
	st.split.header = compressLen
	st.split.frame = st.unframe
	st.group = (&obs.Group{}).
		AddAtomic("compress-blocks-in", &st.stats.blocksIn).
		AddAtomic("compress-bytes-in", &st.stats.bytesIn).
		AddAtomic("compress-wire-bytes", &st.stats.wireBytes).
		AddAtomic("compress-saved-bytes", &st.stats.savedBytes).
		AddAtomic("compress-hdr-bytes", &st.stats.hdrBytes).
		AddAtomic("compress-passthrough", &st.stats.passthrough).
		AddAtomic("compress-dec-frames", &st.stats.decFrames).
		AddAtomic("compress-dec-bytes", &st.stats.decBytes).
		AddAtomic("compress-dec-wire-bytes", &st.stats.decWireBytes).
		AddAtomic("compress-dec-errs", &st.stats.decErrs)
	q.Aux = st
	return nil
}

func (st *compressState) StatsGroup() *obs.Group { return st.group }

// compressFrame builds the wire frame for payload in a pooled block:
// compressed if that shrinks it, stored otherwise.
func compressFrame(payload []byte, delim bool) (*block.Block, bool) {
	// Worst-case compressed size: all literals plus run-length spill.
	bound := compressHdrLen + len(payload) + len(payload)/255 + 16
	bb := block.Alloc(bound, 0)
	w := bb.Bytes()
	out := lzCompress(w[compressHdrLen:compressHdrLen], payload)
	stored := len(out) >= len(payload)
	flags := byte(cflagLZ)
	if stored {
		copy(w[compressHdrLen:], payload)
		out = w[compressHdrLen : compressHdrLen+len(payload)]
		flags = 0
	}
	if delim {
		flags |= cflagDelim
	}
	w[0] = compressMagic
	w[1] = flags
	binary.BigEndian.PutUint32(w[2:6], uint32(len(payload)))
	binary.BigEndian.PutUint32(w[6:10], uint32(len(out)))
	bb.Trim(bb.Len() - (compressHdrLen + len(out)))
	return bb, stored
}

func compressOput(q *Queue, b *Block) {
	if b.Type != BlockData {
		q.PutNext(b)
		return
	}
	st := q.Other().Aux.(*compressState)
	st.stats.blocksIn.Add(1)
	st.stats.bytesIn.Add(int64(b.Len()))
	bb, stored := compressFrame(b.Bytes(), b.Delim)
	wire := bb.Len() - compressHdrLen
	st.stats.wireBytes.Add(int64(wire))
	st.stats.savedBytes.Add(int64(b.Len() - wire))
	st.stats.hdrBytes.Add(compressHdrLen)
	if stored {
		st.stats.passthrough.Add(1)
	}
	b.Free()
	bb.Delim = true
	q.PutNext(bb)
}

// compressHeader reads the header of the frame at the front of p: its
// flags, its uncompressed length and n, the frame's whole length (0
// while the header is not all here). bad means no frame can start with
// these bytes.
func compressHeader(p []byte) (flags byte, ulen, n int, bad bool) {
	if len(p) == 0 {
		return 0, 0, 0, false
	}
	if p[0] != compressMagic {
		return 0, 0, 0, true
	}
	if len(p) < compressHdrLen {
		return 0, 0, 0, false
	}
	flags = p[1]
	ulen = int(binary.BigEndian.Uint32(p[2:6]))
	clen := int(binary.BigEndian.Uint32(p[6:10]))
	if flags&^(cflagLZ|cflagDelim) != 0 || ulen > compressMaxULen || clen > compressMaxULen+compressMaxULen/255+16 {
		return 0, 0, 0, true
	}
	if flags&cflagLZ == 0 && clen != ulen {
		return 0, 0, 0, true
	}
	return flags, ulen, compressHdrLen + clen, false
}

// compressLen is compressHeader in the splitter's form.
func compressLen(p []byte) (n int, bad bool) {
	_, _, n, bad = compressHeader(p)
	return n, bad
}

// expandLZ expands an LZ payload into a pooled block of exactly ulen
// bytes, or returns nil when the compressed data is corrupt.
func expandLZ(payload []byte, ulen int) *Block {
	bb := block.Alloc(ulen, 0)
	if err := lzExpand(bb.Bytes(), payload); err != nil {
		bb.Free()
		return nil
	}
	return bb
}

// unframe restores a whole frame's payload: a stored one in place, an
// LZ one by expansion into a block of its own.
func (st *compressState) unframe(b *Block) *Block {
	p := b.Bytes()
	flags, ulen, n, _ := compressHeader(p)
	out := b
	if flags&cflagLZ == 0 {
		b.Consume(compressHdrLen)
	} else {
		out = expandLZ(p[compressHdrLen:], ulen)
		b.Free()
		if out == nil {
			return nil
		}
	}
	st.stats.decFrames.Add(1)
	st.stats.decBytes.Add(int64(ulen))
	st.stats.decWireBytes.Add(int64(n - compressHdrLen))
	out.Delim = flags&cflagDelim != 0
	return out
}

func compressIput(q *Queue, b *Block) {
	st := q.Aux.(*compressState)
	if st.split.put(q, b) {
		st.stats.decErrs.Add(1)
	}
}
