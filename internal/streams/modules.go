package streams

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// This file provides the reusable processing modules that ship with the
// stream system. Protocol engines (TCP, IL, URP) are modules too, but
// they live with their protocols; these are the generic ones a user can
// "push" onto any stream (§2.4.1).

func init() {
	Register(frameModule)
	Register(traceModule)
}

// frameModule restores message delimiters over a byte-stream transport:
// the marshaling the paper says is needed when "a protocol does not
// meet these requirements (for example, TCP does not preserve
// delimiters)". It is the batch module with a window of one message:
// downstream every delimited write leaves at once behind the same
// 4-byte length prefix, upstream the same splitter reassembles the byte
// stream into delimited blocks and hangs up on a declared length over
// batchMaxMsg.
var frameModule = &Qinfo{
	Name:  "frame",
	Open:  func(q *Queue, arg any) error { return batchOpen(q, BatchConfig{Cap: 1}) },
	Close: batchClose,
	Drain: batchDrain,
	Iput:  batchIput,
	Oput:  batchOput,
}

// traceModule counts blocks and bytes in both directions without
// altering them — the kind of diagnostic interface the Ethernet
// driver's snooping conversations provide (§2.2).
var traceModule = &Qinfo{
	Name: "trace",
	Open: func(q *Queue, arg any) error {
		st := &TraceStats{}
		q.Aux = st
		if p, ok := arg.(**TraceStats); ok && p != nil {
			*p = st
		}
		return nil
	},
	Iput: func(q *Queue, b *Block) {
		st := q.Aux.(*TraceStats)
		if b.Type == BlockData {
			st.InBlocks.Add(1)
			st.InBytes.Add(int64(b.Len()))
		}
		q.PutNext(b)
	},
	Oput: func(q *Queue, b *Block) {
		st := q.Other().Aux.(*TraceStats)
		if b.Type == BlockData {
			st.OutBlocks.Add(1)
			st.OutBytes.Add(int64(b.Len()))
		}
		q.PutNext(b)
	},
}

// TraceStats accumulates the trace module's counters.
type TraceStats struct {
	InBlocks, InBytes   atomic.Int64
	OutBlocks, OutBytes atomic.Int64
}

// String formats the counters in the ASCII style of a stats file.
func (t *TraceStats) String() string {
	return fmt.Sprintf("in: %d blocks %d bytes\nout: %d blocks %d bytes\n",
		t.InBlocks.Load(), t.InBytes.Load(), t.OutBlocks.Load(), t.OutBytes.Load())
}

// StatsGroup surfaces the counters in a conversation's stats file
// alongside the other pushed modules'.
func (t *TraceStats) StatsGroup() *obs.Group {
	return (&obs.Group{}).
		AddAtomic("trace-in-blocks", &t.InBlocks).
		AddAtomic("trace-in-bytes", &t.InBytes).
		AddAtomic("trace-out-blocks", &t.OutBlocks).
		AddAtomic("trace-out-bytes", &t.OutBytes)
}
