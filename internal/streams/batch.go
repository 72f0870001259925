package streams

import (
	"encoding/binary"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// The batch module coalesces small downstream messages into one wire
// block per flush window, so a stream of small 9P requests stops
// paying one wire frame (headers, medium events, per-message engine
// work) per Tmessage. Downstream, every delimited message is framed
// with a 4-byte big-endian length prefix and appended to a pending
// pooled block; the pending block is flushed as a single delimited
// wire block when its complete-frame bytes reach the byte cap, when
// the max-delay timer (on the stream's clock, so virtual time works)
// expires, when a control block passes down (ctl is a flush barrier),
// when a hangup crosses the stream, and when the module is popped.
// Upstream, the module is the inverse: the package's splitter restores
// each length-prefixed frame as its own delimited block, so
// message-per-read transports keep their contract through a batch.
//
//	push batch [cap [delay]]     e.g. "push batch 2048 2ms"

const (
	batchDefaultCap   = 2048
	batchDefaultDelay = 2 * time.Millisecond
	// batchMaxMsg bounds a single message's frame, and is the strict
	// cap the splitter enforces on a declared frame length — a corrupt
	// or hostile prefix cannot balloon reassembly.
	batchMaxMsg = 1 << 20
)

// batchConfig is what the ctl argument string says.
type batchConfig struct {
	Cap   int           // flush when this many complete-frame bytes are pending
	Delay time.Duration // flush this long after the first pending frame
}

func parseBatchArg(arg any) (batchConfig, error) {
	cfg := batchConfig{Cap: batchDefaultCap, Delay: batchDefaultDelay}
	switch v := arg.(type) {
	case nil:
	case string:
		fields := strings.Fields(v)
		if len(fields) > 2 {
			return cfg, ErrBadModArg
		}
		if len(fields) > 0 {
			n, err := strconv.Atoi(fields[0])
			if err != nil || n <= 0 || n > batchMaxMsg {
				return cfg, ErrBadModArg
			}
			cfg.Cap = n
		}
		if len(fields) > 1 {
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return cfg, ErrBadModArg
			}
			cfg.Delay = d
		}
	default:
		return cfg, ErrBadModArg
	}
	return cfg, nil
}

var batchModule = &Qinfo{
	Name:  "batch",
	Open:  batchOpen,
	Close: batchClose,
	Drain: batchDrain,
	Iput:  batchIput,
	Oput:  batchOput,
}

type batchState struct {
	cfg batchConfig

	// Downstream (coalescing) side. mu is held across the put that
	// emits a window, which may park.
	mu      vclock.Mutex
	pend    *block.Block // pooled accumulation window, nil when empty
	used    int          // bytes written into pend's window
	cur     []byte       // current partial (undelimited) message
	timer   *vclock.Timer
	gen     uint64 // flush generation, guards a stale timer callback
	closed  bool
	errored bool // an unbatchable message hung the stream up

	split splitter // upstream

	stats batchStats
	group *obs.Group
}

type batchStats struct {
	msgsIn, blocksIn, bytesIn      atomic.Int64
	wireBlocks, wireBytes          atomic.Int64
	flushCap, flushTimer, flushCtl atomic.Int64
	flushHangup, flushPop          atomic.Int64
	splitFrames, splitBytes, errs  atomic.Int64
}

// flush causes, indexing the by-cause counters.
type flushCause int

const (
	causeCap flushCause = iota
	causeTimer
	causeCtl
	causeHangup
	causePop
)

func (st *batchState) causeCounter(c flushCause) *atomic.Int64 {
	switch c {
	case causeCap:
		return &st.stats.flushCap
	case causeTimer:
		return &st.stats.flushTimer
	case causeCtl:
		return &st.stats.flushCtl
	case causeHangup:
		return &st.stats.flushHangup
	default:
		return &st.stats.flushPop
	}
}

func batchOpen(q *Queue, arg any) error {
	cfg, err := parseBatchArg(arg)
	if err != nil {
		return err
	}
	st := &batchState{cfg: cfg}
	st.mu.Init(q.s.clk)
	st.split.mu.Init(q.s.clk)
	st.split.header = batchHeader
	st.split.frame = st.unframe
	st.group = (&obs.Group{}).
		AddAtomic("batch-msgs-in", &st.stats.msgsIn).
		AddAtomic("batch-blocks-in", &st.stats.blocksIn).
		AddAtomic("batch-bytes-in", &st.stats.bytesIn).
		AddAtomic("batch-wire-blocks", &st.stats.wireBlocks).
		AddAtomic("batch-wire-bytes", &st.stats.wireBytes).
		AddAtomic("batch-flush-cap", &st.stats.flushCap).
		AddAtomic("batch-flush-timer", &st.stats.flushTimer).
		AddAtomic("batch-flush-ctl", &st.stats.flushCtl).
		AddAtomic("batch-flush-hangup", &st.stats.flushHangup).
		AddAtomic("batch-flush-pop", &st.stats.flushPop).
		AddAtomic("batch-split-frames", &st.stats.splitFrames).
		AddAtomic("batch-split-bytes", &st.stats.splitBytes).
		AddAtomic("batch-errs", &st.stats.errs)
	q.Aux = st
	return nil
}

func (st *batchState) StatsGroup() *obs.Group { return st.group }

// windowCap is the pending block's capacity: the flush cap plus room
// for one maximum-size framed block, so any message built from
// MaxBlock writes fits without a mid-message reallocation.
func (st *batchState) windowCap() int { return st.cfg.Cap + MaxBlock + 8 }

// appendPend copies p into the pending window, allocating the pooled
// window lazily at the start of each flush cycle.
func (st *batchState) appendPend(p []byte) {
	if st.pend == nil {
		st.pend = block.Alloc(st.windowCap(), 0)
		st.used = 0
	}
	copy(st.pend.Bytes()[st.used:], p)
	st.used += len(p)
}

// emitLocked flushes the pending window as one delimited wire block
// out of down's position in the chain. Callers hold st.mu and either
// the stream's config read lock (put chain, timer) or its write lock
// (pop drain). The put may park, in a device write waiting for its
// transport's window or its line, so st.mu is a vclock.Mutex: holding
// it across the put keeps flushes in order.
func (st *batchState) emitLocked(down *Queue, cause flushCause) {
	st.gen++
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	if st.pend == nil {
		return
	}
	bb := st.pend
	st.pend = nil
	bb.Trim(bb.Len() - st.used)
	st.causeCounter(cause).Add(1)
	st.stats.wireBlocks.Add(1)
	st.stats.wireBytes.Add(int64(bb.Len()))
	bb.Delim = true
	down.PutNext(bb)
}

// armTimerLocked starts the max-delay flush timer for the current
// window if it is not already running.
func (st *batchState) armTimerLocked(down *Queue) {
	if st.timer != nil || st.cfg.Delay <= 0 {
		return
	}
	gen := st.gen
	s := down.Stream()
	st.timer = s.Clock().AfterFunc(st.cfg.Delay, func() {
		// The config read lock makes the chain traversal safe against
		// a concurrent push/pop, exactly as the put chains do.
		s.cfg.RLock()
		defer s.cfg.RUnlock()
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.closed || st.gen != gen {
			return
		}
		st.timer = nil
		st.emitLocked(down, causeTimer)
	})
}

func batchOput(q *Queue, b *Block) {
	st := q.Other().Aux.(*batchState)
	if b.Type != BlockData {
		// A control block is a flush barrier: pending data goes to the
		// wire before the ctl passes down, preserving order.
		st.mu.Lock()
		st.emitLocked(q, causeCtl)
		st.mu.Unlock()
		q.PutNext(b)
		return
	}
	st.mu.Lock()
	if st.closed || st.errored {
		st.mu.Unlock()
		b.Free()
		return
	}
	st.stats.blocksIn.Add(1)
	st.stats.bytesIn.Add(int64(b.Len()))

	// Fastpath: a whole delimited message in one block, nothing
	// pending, already at or over the cap — frame it in place via the
	// block's headroom and emit it directly, copy-free.
	if st.pend == nil && len(st.cur) == 0 && b.Delim && 4+b.Len() >= st.cfg.Cap {
		st.stats.msgsIn.Add(1)
		st.gen++
		if st.timer != nil {
			st.timer.Stop()
			st.timer = nil
		}
		st.causeCounter(causeCap).Add(1)
		n := b.Len()
		binary.BigEndian.PutUint32(b.Prepend(4), uint32(n))
		st.stats.wireBlocks.Add(1)
		st.stats.wireBytes.Add(int64(b.Len()))
		st.mu.Unlock()
		q.PutNext(b)
		return
	}

	st.cur = append(st.cur, b.Bytes()...)
	delim := b.Delim
	b.Free()
	if !delim {
		if len(st.cur) > batchMaxMsg {
			st.failLocked(q.Other())
			return
		}
		st.mu.Unlock()
		return
	}
	st.stats.msgsIn.Add(1)
	if len(st.cur) > batchMaxMsg {
		st.failLocked(q.Other())
		return
	}
	frame := 4 + len(st.cur)
	if st.pend != nil && st.used+frame > st.windowCap() {
		st.emitLocked(q, causeCap)
	}
	if frame > st.windowCap() {
		// A message too large for any window becomes its own wire
		// block immediately.
		bb := block.Alloc(frame, 0)
		w := bb.Bytes()
		binary.BigEndian.PutUint32(w[:4], uint32(len(st.cur)))
		copy(w[4:], st.cur)
		st.cur = st.cur[:0]
		st.causeCounter(causeCap).Add(1)
		st.stats.wireBlocks.Add(1)
		st.stats.wireBytes.Add(int64(bb.Len()))
		bb.Delim = true
		st.mu.Unlock()
		q.PutNext(bb)
		return
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(st.cur)))
	st.appendPend(hdr[:])
	st.appendPend(st.cur)
	st.cur = st.cur[:0]
	if st.used >= st.cfg.Cap {
		st.emitLocked(q, causeCap)
	} else {
		st.armTimerLocked(q)
	}
	st.mu.Unlock()
}

// failLocked poisons the module after an unbatchable message and hangs
// the stream up at its device end, as every hangup enters: the peer's
// splitter would desynchronize otherwise. Called with st.mu held on
// the up queue; releases st.mu.
func (st *batchState) failLocked(up *Queue) {
	st.stats.errs.Add(1)
	st.errored = true
	st.cur = nil
	if st.pend != nil {
		st.pend.Free()
		st.pend = nil
	}
	st.mu.Unlock()
	up.Stream().HangupUp()
}

// batchHeader reads the length prefix at the front of p: the frame's
// whole length, or 0 while fewer than four bytes are here. A declared
// length over batchMaxMsg is a frame the coalescer could never have
// produced: the stream is desynchronized or hostile.
func batchHeader(p []byte) (n int, bad bool) {
	if len(p) < 4 {
		return 0, false
	}
	m := int(binary.BigEndian.Uint32(p))
	if m > batchMaxMsg {
		return 0, true
	}
	return 4 + m, false
}

// unframe peels the length prefix off a whole frame, in place.
func (st *batchState) unframe(b *Block) *Block {
	b.Consume(4)
	b.Delim = true
	st.stats.splitFrames.Add(1)
	st.stats.splitBytes.Add(int64(b.Len()))
	return b
}

func batchIput(q *Queue, b *Block) {
	st := q.Aux.(*batchState)
	if b.Type == BlockHangup {
		// A hangup crossing the stream flushes — not leaks — the
		// pending coalesced block: the device end is still reachable
		// until teardown finishes, and the accounting must balance.
		st.mu.Lock()
		st.emitLocked(q.Other(), causeHangup)
		st.mu.Unlock()
	}
	if st.split.put(q, b) {
		st.stats.errs.Add(1)
	}
}

// batchDrain runs under the stream's exclusive config lock just before
// the module is unspliced: the pending window goes to the wire ahead
// of any write issued after the pop.
func batchDrain(q *Queue) {
	st, ok := q.Aux.(*batchState)
	if !ok {
		return
	}
	st.mu.Lock()
	st.emitLocked(q.Other(), causePop)
	st.mu.Unlock()
}

func batchClose(q *Queue) {
	st, ok := q.Aux.(*batchState)
	if !ok {
		return
	}
	st.mu.Lock()
	st.closed = true
	st.gen++
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	if st.pend != nil {
		// Drain already flushed on the pop path; anything still here
		// (defensive) goes back to the pool rather than leaking.
		st.pend.Free()
		st.pend = nil
	}
	st.cur = nil
	st.mu.Unlock()
}
