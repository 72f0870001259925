package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ninep"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Span kinds. An instant (a message handed up by ReadMsg) has equal
// start and end.
const (
	spanOp       = "op"        // one workload operation, start to verified
	spanCliWrite = "cli-write" // a T-message inside the client's WriteMsg
	spanCliRead  = "cli-read"  // an R-message returned by the client's ReadMsg
	spanSrvRead  = "srv-read"  // a T-message returned by the server's ReadMsg
	spanSrvWrite = "srv-write" // an R-message inside the server's WriteMsg
	spanBacking  = "backing"   // a call from the export into its backing tree
	spanDial     = "dial"      // dialer.Dial
	spanHangup   = "hangup"    // Conn.Close
)

// span is one boundary crossing. Sim times are nanoseconds of virtual
// time since vclock.Epoch; host times are nanoseconds since the tracer
// was made.
type span struct {
	Kind   string `json:"kind"`
	Client int    `json:"client"` // the op's client; -1 on the serving side
	Op     int    `json:"op"`     // the client's op in progress; -1 outside the timed window
	Conn   int    `json:"conn"`   // the wrapped conversation, 0 when none
	Tag    uint16 `json:"tag"`
	Old    uint16 `json:"oldtag,omitempty"` // the tag a Tflush abandons
	Name   string `json:"name"`             // 9P message type, backing call, or dial string
	Sim0   int64  `json:"sim0"`
	Sim1   int64  `json:"sim1"`
	Host0  int64  `json:"host0"`
	Host1  int64  `json:"host1"`
}

// tracer collects spans in memory. The wrappers it hands out take no
// simulated time: they read two clocks and append, and never park.
type tracer struct {
	ck    vclock.Clock
	start time.Time

	mu       sync.Mutex
	spans    []span
	conns    int
	clientOf map[*core.Machine]int
	opOf     map[int]int
}

func newTracer(ck vclock.Clock) *tracer {
	return &tracer{
		ck:       ck,
		start:    time.Now(), //netvet:ignore realtime host half of every span
		spans:    make([]span, 0, 1<<16),
		clientOf: map[*core.Machine]int{},
		opOf:     map[int]int{},
	}
}

// stamp is the two clocks read together.
type stamp struct{ sim, host int64 }

func (t *tracer) now() stamp {
	return stamp{
		sim:  int64(t.ck.Now().Sub(vclock.Epoch)),
		host: int64(time.Since(t.start)), //netvet:ignore realtime host half of every span
	}
}

func (t *tracer) add(kind string, client int, name string, a, b stamp) {
	t.addMsg(kind, client, msgHead{name: name}, a, b)
}

func (t *tracer) addMsg(kind string, client int, m msgHead, a, b stamp) {
	t.mu.Lock()
	op := -1
	if client >= 0 {
		op = t.opOf[client]
	}
	t.spans = append(t.spans, span{kind, client, op, m.conn, m.tag, m.old, m.name, a.sim, b.sim, a.host, b.host})
	t.mu.Unlock()
}

// enroll names m's processes client id in the spans.
func (t *tracer) enroll(m *core.Machine, id int) {
	t.mu.Lock()
	t.clientOf[m] = id
	t.opOf[id] = -1
	t.mu.Unlock()
}

// beginOp marks the client's op in progress; endOp records its span.
// Nil tracers ignore both, so workloads call them unconditionally.
func (t *tracer) beginOp(client, op int) stamp {
	if t == nil {
		return stamp{}
	}
	t.mu.Lock()
	t.opOf[client] = op
	t.mu.Unlock()
	return t.now()
}

func (t *tracer) endOp(client int, a stamp) {
	if t == nil {
		return
	}
	t.add(spanOp, client, "", a, t.now())
	t.mu.Lock()
	t.opOf[client] = -1
	t.mu.Unlock()
}

// timed records f as a span of kind: a dial or a hangup made on behalf
// of client, or a call into a backing tree.
func (t *tracer) timed(kind string, client int, name string, f func()) {
	if t == nil {
		f()
		return
	}
	a := t.now()
	f()
	t.add(kind, client, name, a, t.now())
}

func (t *tracer) newConn() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.conns++
	return t.conns
}

// msgHead is what a span keeps of a marshaled 9P message.
type msgHead struct {
	conn     int
	tag, old uint16
	name     string
}

// head reads size[4] type[1] tag[2], and the oldtag[2] of a Tflush.
func (c *tracedConn) head(p []byte) msgHead {
	if len(p) < 7 {
		return msgHead{conn: c.conn, name: "short"}
	}
	m := msgHead{conn: c.conn, tag: binary.LittleEndian.Uint16(p[5:7]), name: ninep.TypeName(p[4])}
	if p[4] == ninep.Tflush && len(p) >= 9 {
		m.old = binary.LittleEndian.Uint16(p[7:9])
	}
	return m
}

// tracedConn sits between a 9P engine and its conversation.
type tracedConn struct {
	ninep.MsgConn
	t           *tracer
	client      int
	conn        int
	read, write string
}

// client wraps the conversation under m's 9P client.
func (t *tracer) client(m *core.Machine, c ninep.MsgConn) ninep.MsgConn {
	t.mu.Lock()
	id, ok := t.clientOf[m]
	t.mu.Unlock()
	if !ok {
		id = -1
	}
	return &tracedConn{c, t, id, t.newConn(), spanCliRead, spanCliWrite}
}

// server wraps the conversation under a 9P server.
func (t *tracer) server(c ninep.MsgConn) ninep.MsgConn {
	return &tracedConn{c, t, -1, t.newConn(), spanSrvRead, spanSrvWrite}
}

func (c *tracedConn) ReadMsg() ([]byte, error) {
	p, err := c.MsgConn.ReadMsg()
	if err == nil {
		at := c.t.now()
		c.t.addMsg(c.read, c.client, c.head(p), at, at)
	}
	return p, err
}

// WriteMsg reads the header first: the transport owns p afterwards.
func (c *tracedConn) WriteMsg(p []byte) error {
	m := c.head(p)
	a := c.t.now()
	err := c.MsgConn.WriteMsg(p)
	c.t.addMsg(c.write, c.client, m, a, c.t.now())
	return err
}

// tree wraps the root of a served subtree. Mounted over the subtree in
// the exporter's name space, it records every call the export (and its
// cache) makes into the tree behind it.
func (t *tracer) tree(n vfs.Node) vfs.Node { return tracedNode{t, n} }

type tracedNode struct {
	t *tracer
	n vfs.Node
}

func (n tracedNode) call(name string, f func()) { n.t.timed(spanBacking, -1, name, f) }

func (n tracedNode) Stat() (d vfs.Dir, err error) {
	n.call("stat", func() { d, err = n.n.Stat() })
	return
}

func (n tracedNode) Walk(name string) (vfs.Node, error) {
	var child vfs.Node
	var err error
	n.call("walk", func() { child, err = n.n.Walk(name) })
	if err != nil {
		return nil, err
	}
	return tracedNode{n.t, child}, nil
}

func (n tracedNode) Open(mode int) (vfs.Handle, error) {
	var h vfs.Handle
	var err error
	n.call("open", func() { h, err = n.n.Open(mode) })
	if err != nil {
		return nil, err
	}
	return tracedHandle{n.t, h}, nil
}

func (n tracedNode) Create(name string, perm uint32, mode int) (vfs.Node, vfs.Handle, error) {
	cr, ok := n.n.(vfs.Creator)
	if !ok {
		return nil, nil, vfs.ErrPerm
	}
	var child vfs.Node
	var h vfs.Handle
	var err error
	n.call("create", func() { child, h, err = cr.Create(name, perm, mode) })
	if err != nil {
		return nil, nil, err
	}
	return tracedNode{n.t, child}, tracedHandle{n.t, h}, nil
}

func (n tracedNode) Remove() (err error) {
	rm, ok := n.n.(vfs.Remover)
	if !ok {
		return vfs.ErrPerm
	}
	n.call("remove", func() { err = rm.Remove() })
	return
}

func (n tracedNode) Wstat(d vfs.Dir) (err error) {
	w, ok := n.n.(vfs.Wstater)
	if !ok {
		return vfs.ErrPerm
	}
	n.call("wstat", func() { err = w.Wstat(d) })
	return
}

type tracedHandle struct {
	t *tracer
	h vfs.Handle
}

func (h tracedHandle) call(name string, f func()) { h.t.timed(spanBacking, -1, name, f) }

func (h tracedHandle) Read(p []byte, off int64) (n int, err error) {
	h.call("read", func() { n, err = h.h.Read(p, off) })
	return
}

func (h tracedHandle) Write(p []byte, off int64) (n int, err error) {
	h.call("write", func() { n, err = h.h.Write(p, off) })
	return
}

func (h tracedHandle) Close() (err error) {
	h.call("close", func() { err = h.h.Close() })
	return
}

// Stable forwards the inner handle's word, so the cache above still
// tells stored bytes from live device files.
func (h tracedHandle) Stable() bool {
	s, ok := h.h.(vfs.Stable)
	return ok && s.Stable()
}

func (h tracedHandle) ReadDir() (ents []vfs.Dir, err error) {
	dr, ok := h.h.(vfs.DirReader)
	if !ok {
		return nil, vfs.ErrNotDir
	}
	h.call("readdir", func() { ents, err = dr.ReadDir() })
	return
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		rec := struct {
			Workload string `json:"workload"`
			*span
		}{workload, &t.spans[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is what the traced run reports from its spans over the
// timed window [from, to] of simulated time.
type spanStats struct {
	rpcNs       []int64 // T written → R read, by conversation and tag
	residencyNs []int64 // server ReadMsg → WriteMsg, by conversation and tag
	sendWaitNs  int64   // inside client WriteMsg
	replyWaitNs int64   // inside server WriteMsg
	outstanding int64   // summed RPC time, for the mean in flight
	backing     int64   // calls into the backing tree
	backingNs   int64
	dialNs      []int64
	hangupNs    []int64
	budget      *simBudget // single-client workloads only
}

// simBudget partitions the simulated time of every op of a
// single-client workload. At each instant the op is charged to the
// first of these that holds, so the parts of an op sum to its length.
type simBudget struct {
	ops       int
	sendWait  int64 // a T-message is blocked in the client's WriteMsg
	residency int64 // a request is inside the server
	replyWait int64 // an R-message is blocked in the server's WriteMsg
	transport int64 // an RPC is outstanding, none of the above: transport and media
	mountIdle int64 // nothing is outstanding: the mount driver
	total     int64 // summed op lengths
}

type interval struct{ from, to int64 }

// analyze matches the spans inside the window. single asks for the
// per-op budget too, and fails if an op's parts do not sum to it.
func (t *tracer) analyze(from, to int64, single bool) (*spanStats, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	st := &spanStats{}
	type key struct {
		conn int
		tag  uint16
	}
	inWindow := func(s *span) bool { return s.Sim0 >= from && s.Sim1 <= to }
	sent := map[key]*span{}    // client T in flight
	arrived := map[key]*span{} // server T resident
	var ops, sendWait, resident, replyWait, outstanding []interval
	for i := range spans {
		s := &spans[i]
		k := key{s.Conn, s.Tag}
		switch s.Kind {
		case spanOp:
			if inWindow(s) {
				ops = append(ops, interval{s.Sim0, s.Sim1})
			}
		case spanCliWrite:
			sent[k] = s
			if inWindow(s) {
				st.sendWaitNs += s.Sim1 - s.Sim0
				sendWait = append(sendWait, interval{s.Sim0, s.Sim1})
			}
		case spanCliRead:
			w := sent[k]
			if w == nil {
				break
			}
			delete(sent, k)
			if w.Sim0 >= from && s.Sim1 <= to {
				st.rpcNs = append(st.rpcNs, s.Sim1-w.Sim0)
				st.outstanding += s.Sim1 - w.Sim0
			}
			outstanding = append(outstanding, interval{w.Sim0, s.Sim1})
			// An Rflush also ends the request it abandoned, whose
			// own reply the server may have suppressed.
			old := key{s.Conn, w.Old}
			if f := sent[old]; f != nil && w.Name == "Tflush" {
				delete(sent, old)
				outstanding = append(outstanding, interval{f.Sim0, s.Sim1})
			}
		case spanSrvRead:
			arrived[k] = s
		case spanSrvWrite:
			if inWindow(s) {
				st.replyWaitNs += s.Sim1 - s.Sim0
			}
			replyWait = append(replyWait, interval{s.Sim0, s.Sim1})
			r := arrived[k]
			if r == nil {
				break
			}
			delete(arrived, k)
			if r.Sim0 >= from && s.Sim0 <= to {
				st.residencyNs = append(st.residencyNs, s.Sim0-r.Sim0)
			}
			resident = append(resident, interval{r.Sim0, s.Sim0})
			old := key{s.Conn, r.Old}
			if f := arrived[old]; f != nil && r.Name == "Tflush" {
				delete(arrived, old)
				resident = append(resident, interval{f.Sim0, s.Sim0})
			}
		case spanBacking:
			if inWindow(s) {
				st.backing++
				st.backingNs += s.Sim1 - s.Sim0
			}
		case spanDial:
			if inWindow(s) {
				st.dialNs = append(st.dialNs, s.Sim1-s.Sim0)
			}
		case spanHangup:
			if inWindow(s) {
				st.hangupNs = append(st.hangupNs, s.Sim1-s.Sim0)
			}
		}
	}
	if single {
		b, err := partition(ops, sendWait, resident, replyWait, outstanding)
		if err != nil {
			return nil, err
		}
		st.budget = b
	}
	return st, nil
}

// partition sweeps the op intervals once, charging every nanosecond to
// the highest class active at it.
func partition(ops []interval, classes ...[]interval) (*simBudget, error) {
	type edge struct {
		at    int64
		class int
		delta int
	}
	var edges []edge
	for c, ivs := range classes {
		for _, iv := range ivs {
			if iv.to > iv.from {
				edges = append(edges, edge{iv.from, c, +1}, edge{iv.to, c, -1})
			}
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	sort.Slice(ops, func(i, j int) bool { return ops[i].from < ops[j].from })

	b := &simBudget{ops: len(ops)}
	parts := [5]*int64{&b.sendWait, &b.residency, &b.replyWait, &b.transport, &b.mountIdle}
	active := make([]int, len(classes))
	charge := func(n int64) {
		for c, k := range active {
			if k > 0 {
				*parts[c] += n
				return
			}
		}
		b.mountIdle += n
	}
	e := 0
	for _, op := range ops {
		for ; e < len(edges) && edges[e].at <= op.from; e++ {
			active[edges[e].class] += edges[e].delta
		}
		before := b.sendWait + b.residency + b.replyWait + b.transport + b.mountIdle
		at := op.from
		for ; e < len(edges) && edges[e].at < op.to; e++ {
			charge(edges[e].at - at)
			at = edges[e].at
			active[edges[e].class] += edges[e].delta
		}
		charge(op.to - at)
		after := b.sendWait + b.residency + b.replyWait + b.transport + b.mountIdle
		if after-before != op.to-op.from {
			return nil, fmt.Errorf("simulated-time budget: op at T+%v is %v long but its parts sum to %v",
				time.Duration(op.from), time.Duration(op.to-op.from), time.Duration(after-before))
		}
		b.total += op.to - op.from
	}
	return b, nil
}
