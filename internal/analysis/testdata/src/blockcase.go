// Corpus for the block-ownership check: buffer-view aliasing cases
// (carried over from the retired block-aliasing check).
package blockcase

type blk struct{ Buf []byte }

func (b *blk) Bytes() []byte { return b.Buf }
func (b *blk) Free()         {}

type queue struct{}

func (q *queue) PutNext(b *blk) {}

func sink(p []byte) {}

func useAfterFree(b *blk) {
	p := b.Bytes()
	b.Free()
	sink(p) // want block-ownership "used after b is released"
}

func indexAfterFree(b *blk) byte {
	p := b.Bytes()
	b.Free()
	return p[0] // want block-ownership "used after b is released"
}

func writeAfterPutNext(q *queue, b *blk) {
	hdr := b.Bytes()
	q.PutNext(b)
	hdr[0] = 1 // want block-ownership "used after b is released"
}

// The trace API is a tempting place to break the rule: a send path
// frees (or hands on) the block, then reaches back into the buffer
// for the event's payload fields. By then the pool may have recycled
// the bytes, so the trace records somebody else's data.

type ring struct{}

func (r *ring) Emit(kind int, a, b int64) {}

func traceAfterFree(r *ring, b *blk) {
	p := b.Bytes()
	b.Free()
	r.Emit(1, int64(p[0]), int64(len(p))) // want block-ownership "used after b is released"
}

func traceAfterPutNext(r *ring, q *queue, b *blk) {
	p := b.Bytes()
	q.PutNext(b)
	r.Emit(2, 0, int64(len(p))) // want block-ownership "used after b is released"
}

func traceBeforeFree(r *ring, b *blk) {
	p := b.Bytes()
	r.Emit(1, int64(p[0]), int64(len(p))) // payload captured while b is still ours
	b.Free()
}

// The rest must stay silent.

func useBeforeFree(b *blk) {
	p := b.Bytes()
	sink(p)
	b.Free()
}

func neverReleased(b *blk) {
	p := b.Bytes()
	sink(p)
	sink(p)
}

func rebindAfterFree(b, c *blk) {
	p := b.Bytes()
	sink(p)
	b.Free()
	p = c.Bytes() // wholesale rebind: p no longer views b
	sink(p)
}

func freeInErrorBranch(b *blk) {
	p := b.Bytes()
	if len(p) == 0 {
		b.Free()
		return
	}
	sink(p) // the free is branch-local: this path still owns b
	b.Free()
}

type buffer struct{ Buf []byte }

func (bu *buffer) Bytes() []byte { return bu.Buf }

func notABlock(bu *buffer, q *queue, b *blk) {
	p := bu.Bytes() // no Free method: not a pooled block, untracked
	q.PutNext(b)
	sink(p)
}
