package streams

import (
	"encoding/binary"
	"sync"

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
// Both directions work in pooled buffers, and the upstream side is a
// streaming reassembler, so the module survives byte-stream transports
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
	Name:  "compress",
	Open:  compressOpen,
	Close: compressClose,
	Iput:  compressIput,
	Oput:  compressOput,
}

type compressState struct {
	// Downstream needs no buffer state: each block is framed on the
	// caller's goroutine. Upstream reassembles.
	rmu     sync.Mutex
	partial []byte
	errored bool

	stats compressStats
	group *obs.Group
}

type compressStats struct {
	blocksIn, bytesIn     obs.Counter // downstream payload accepted
	wireBytes, savedBytes obs.Counter // stored lengths vs. what they saved
	hdrBytes              obs.Counter // framing overhead added
	passthrough           obs.Counter // blocks sent stored
	decFrames, decBytes   obs.Counter // upstream frames and ulen restored
	decWireBytes          obs.Counter // upstream stored bytes consumed
	decErrs               obs.Counter
}

func compressOpen(q *Queue, arg any) error {
	if arg != nil {
		if s, ok := arg.(string); !ok || s != "" {
			return ErrBadModArg
		}
	}
	st := &compressState{}
	st.group = (&obs.Group{}).
		AddCounter("compress-blocks-in", &st.stats.blocksIn).
		AddCounter("compress-bytes-in", &st.stats.bytesIn).
		AddCounter("compress-wire-bytes", &st.stats.wireBytes).
		AddCounter("compress-saved-bytes", &st.stats.savedBytes).
		AddCounter("compress-hdr-bytes", &st.stats.hdrBytes).
		AddCounter("compress-passthrough", &st.stats.passthrough).
		AddCounter("compress-dec-frames", &st.stats.decFrames).
		AddCounter("compress-dec-bytes", &st.stats.decBytes).
		AddCounter("compress-dec-wire-bytes", &st.stats.decWireBytes).
		AddCounter("compress-dec-errs", &st.stats.decErrs)
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

// expandFrame decodes one complete frame (header already validated for
// completeness) into a fresh pooled block. Returns nil on corrupt
// compressed data.
func expandFrame(flags byte, ulen int, payload []byte) *block.Block {
	if flags&cflagLZ == 0 {
		if len(payload) != ulen {
			return nil
		}
		return block.Copy(payload, 0)
	}
	bb := block.Alloc(ulen, 0)
	if err := lzExpand(bb.Bytes(), payload); err != nil {
		bb.Free()
		return nil
	}
	return bb
}

// parseCompressHeader validates a frame header prefix. It returns the
// flags, uncompressed and stored lengths, and ok=false with a hard
// error when the header can never become valid (vs. just short).
func parseCompressHeader(p []byte) (flags byte, ulen, clen int, bad bool) {
	if p[0] != compressMagic {
		return 0, 0, 0, true
	}
	if len(p) < compressHdrLen {
		return 0, 0, 0, false
	}
	flags = p[1]
	ulen = int(binary.BigEndian.Uint32(p[2:6]))
	clen = int(binary.BigEndian.Uint32(p[6:10]))
	if flags&^(cflagLZ|cflagDelim) != 0 || ulen > compressMaxULen || clen > compressMaxULen+compressMaxULen/255+16 {
		return 0, 0, 0, true
	}
	if flags&cflagLZ == 0 && clen != ulen {
		return 0, 0, 0, true
	}
	return flags, ulen, clen, false
}

// fail poisons the upstream side and hangs the stream up. Called with
// st.rmu held; releases it.
func (st *compressState) fail(up *Queue) {
	st.stats.decErrs.Add(1)
	st.errored = true
	st.partial = nil
	st.rmu.Unlock()
	up.PutNext(block.Control(BlockHangup, ""))
}

func compressIput(q *Queue, b *Block) {
	st := q.Aux.(*compressState)
	if b.Type != BlockData {
		if b.Type == BlockHangup {
			st.rmu.Lock()
			st.partial = nil
			st.rmu.Unlock()
		}
		q.PutNext(b)
		return
	}
	st.rmu.Lock()
	if st.errored {
		st.rmu.Unlock()
		b.Free()
		return
	}
	// Fastpath: nothing partial and exactly one whole frame.
	if p := b.Bytes(); len(st.partial) == 0 && len(p) >= compressHdrLen {
		flags, ulen, clen, bad := parseCompressHeader(p)
		if bad {
			st.fail(q)
			b.Free()
			return
		}
		if len(p) == compressHdrLen+clen {
			out := expandFrame(flags, ulen, p[compressHdrLen:])
			if out == nil {
				st.fail(q)
				b.Free()
				return
			}
			st.stats.decFrames.Add(1)
			st.stats.decBytes.Add(int64(ulen))
			st.stats.decWireBytes.Add(int64(clen))
			st.rmu.Unlock()
			b.Free()
			out.Delim = flags&cflagDelim != 0
			q.PutNext(out)
			return
		}
	}
	st.partial = append(st.partial, b.Bytes()...)
	b.Free()
	var msgs []*Block
	for len(st.partial) > 0 {
		flags, ulen, clen, bad := parseCompressHeader(st.partial)
		if bad {
			st.fail(q)
			return
		}
		if len(st.partial) < compressHdrLen || len(st.partial) < compressHdrLen+clen {
			break
		}
		out := expandFrame(flags, ulen, st.partial[compressHdrLen:compressHdrLen+clen])
		if out == nil {
			st.fail(q)
			return
		}
		st.stats.decFrames.Add(1)
		st.stats.decBytes.Add(int64(ulen))
		st.stats.decWireBytes.Add(int64(clen))
		out.Delim = flags&cflagDelim != 0
		msgs = append(msgs, out)
		st.partial = st.partial[compressHdrLen+clen:]
	}
	st.rmu.Unlock()
	for _, m := range msgs {
		q.PutNext(m)
	}
}

func compressClose(q *Queue) {
	st, ok := q.Aux.(*compressState)
	if !ok {
		return
	}
	st.rmu.Lock()
	st.partial = nil
	st.rmu.Unlock()
}
