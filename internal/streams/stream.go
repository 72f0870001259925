package streams

import (
	"io"
	"strings"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Stream is a bidirectional channel between a device and user
// processes (§2.4): a linear list of module instances between a user
// end at the top and a device end at the bottom.
//
// Topology, from top to bottom (upstream is toward the top):
//
//	user read/write
//	  topRead (up, to rq)      topWrite (down, pass)
//	  [pushed modules ...]
//	  devUp (up, from rq)      devWrite (down, device output)
//	device receive/transmit
//
// Downstream runs on the writing process, all the way to the device;
// upstream on the reading one: a device only queues on rq, and Read
// carries what it queued up through the modules, so a delivery runs no
// module code and takes no module-list lock.
type Stream struct {
	clk vclock.Clock

	cfg      chainLock // guards module list changes vs. traffic
	topRead  Queue     // up direction terminator: what reaches it waits in rq for Read
	topWrite Queue     // down direction entry: user writes here
	devUp    Queue     // up direction entry: the reader carries rq's blocks from here
	devWrite Queue     // down direction terminator: device output

	// The device end: dev takes every block, or out every message
	// whole, part holding the blocks of one not yet delimited.
	dev  DeviceFunc
	out  io.Writer
	part []byte

	// rlock is the per-stream read lock of §2.4.1. A reader holds it while
	// it waits for data, so a second reader queues through the clock.
	rlock vclock.Mutex

	rq rcvQueue
}

// DeviceFunc is the device-end output routine: it receives every block
// that reaches the bottom of the stream. It corresponds to the output
// put routine of a device interface (§2.4.2).
type DeviceFunc func(b *Block)

// New creates a stream on the real clock whose device end delivers
// downstream blocks to dev. limit <= 0 selects DefaultLimit.
func New(limit int, dev DeviceFunc) *Stream { return NewClock(limit, vclock.Real, dev) }

// NewClock is New on ck: flow-control waits and the read lock go
// through ck, so a virtual-clock stream parks cooperatively with the
// simulation scheduler.
func NewClock(limit int, ck vclock.Clock, dev DeviceFunc) *Stream {
	if limit <= 0 {
		limit = DefaultLimit
	}
	s := &Stream{clk: ck, dev: dev}
	s.cfg.init(ck)
	s.rlock.Init(ck)
	s.rq.init(ck, limit)
	// Initially no modules: writes go straight to the device, device
	// input goes straight to the top.
	s.topRead = Queue{s: s, put: topPut}
	s.topWrite = Queue{s: s, put: PassPut, next: &s.devWrite}
	s.devUp = Queue{s: s, put: PassPut, next: &s.topRead}
	s.devWrite = Queue{s: s, put: deviceOut}
	return s
}

// NewConv makes a conversation's stream (§2.4): its device end hands
// each whole data message to w's Write, the transport's send, however
// the modules above cut it into blocks. With nothing pushed, Write
// hands the user's bytes to w directly and returns what w returns.
// The transport queues what it receives with Produce, or, on a line
// whose sender holds a credit on this stream, Deliver.
func NewConv(limit int, ck vclock.Clock, w io.Writer) *Stream {
	s := NewClock(limit, ck, nil)
	s.out = w
	return s
}

// deviceOut is the device end's put routine: the block goes to the
// device function, or, on a conversation's stream, a data message goes
// to the transport in one Write once its delimited block arrives.
// Anything else ends here.
func deviceOut(q *Queue, b *Block) {
	s := q.s
	switch {
	case s.dev != nil:
		s.dev(b) // ownership passes to the device
		return
	case s.out == nil || b.Type != BlockData:
	case len(s.part) == 0 && b.Delim:
		s.out.Write(b.Bytes()) // a message in one block: no copy
	default:
		s.part = append(s.part, b.Bytes()...)
		if b.Delim {
			s.out.Write(s.part)
			s.part = s.part[:0]
		}
	}
	b.Free()
}

// Clock returns the stream's time source. Modules must take their
// timers from here — never from the real clock directly — so a stream
// inside a discrete-event simulation stays deterministic.
func (s *Stream) Clock() vclock.Clock { return s.clk }

// Push adds an instance of module qi to the top of the stream
// (§2.4.1 "push name"), passing arg to its Open hook.
func (s *Stream) Push(qi *Qinfo, arg any) error {
	// The instance's two queues are one allocation.
	pair := new([2]Queue)
	up, down := &pair[0], &pair[1]
	*up = Queue{s: s, qi: qi, put: qi.Iput, other: down}
	*down = Queue{s: s, qi: qi, put: qi.Oput, other: up}
	// Open runs before the splice: the moment the pair is reachable a
	// put chain from either end may call the module's put procedures,
	// so its state must be fully built first. Open hooks therefore
	// must not put blocks — the queues have no neighbors yet.
	if qi.Open != nil {
		if err := qi.Open(up, arg); err != nil {
			return err
		}
	}
	// Splice below the top pair.
	s.cfg.Lock()
	up.next = &s.topRead
	down.next = s.topWrite.next
	s.topWrite.next = down
	// Find the queue currently feeding topRead and repoint it.
	prev := s.prevUpLocked(&s.topRead)
	prev.next = up
	s.cfg.Unlock()
	return nil
}

// PushName pushes one of the package's modules by name.
func (s *Stream) PushName(name string, arg any) error {
	qi := lookup(name)
	if qi == nil {
		return ErrUnknownMod
	}
	return s.Push(qi, arg)
}

// Pop removes the top module (§2.4.1 "pop").
func (s *Stream) Pop() error {
	up := s.popModule()
	if up == nil {
		return ErrNothingToPop
	}
	if up.qi.Close != nil {
		up.qi.Close(up)
	}
	return nil
}

// popModule unsplices and returns the top module's up queue.
//
// While the exclusive config lock is held — no put chain in flight,
// no writer able to start one — the module's Drain hook runs, so any
// data it holds (a batch window's pending coalesced block) is emitted
// down the still-intact chain BEFORE the module disappears. A write
// issued after Pop returns therefore cannot overtake data written
// before it. A stream with nothing pushed does not wait for the chains
// in flight: a writer parked in its transport's window holds the read
// side, and a hangup must not wait for the window to open.
func (s *Stream) popModule() *Queue {
	s.cfg.RLock()
	bare := s.topWrite.next == &s.devWrite
	s.cfg.RUnlock()
	if bare {
		return nil
	}
	s.cfg.Lock()
	defer s.cfg.Unlock()
	down := s.topWrite.next
	if down == &s.devWrite {
		return nil
	}
	up := down.other
	if up.qi != nil && up.qi.Drain != nil {
		up.qi.Drain(up)
	}
	s.topWrite.next = down.next
	prev := s.prevUpLocked(up)
	prev.next = up.next
	return up
}

// prevUpLocked finds the queue whose next (in the up direction) is q.
func (s *Stream) prevUpLocked(q *Queue) *Queue {
	cur := &s.devUp
	for cur.next != nil && cur.next != q {
		cur = cur.next
	}
	return cur
}

// StatsSource is implemented by module state (a queue's Aux) that
// exports an observable counter group; the conversation's stats file
// renders every pushed module's group.
type StatsSource interface{ StatsGroup() *obs.Group }

// ModuleStats returns the stats groups of pushed modules, top first.
func (s *Stream) ModuleStats() []*obs.Group {
	s.cfg.RLock()
	defer s.cfg.RUnlock()
	var gs []*obs.Group
	for q := s.topWrite.next; q != &s.devWrite; q = q.next {
		if src, ok := q.other.Aux.(StatsSource); ok {
			gs = append(gs, src.StatsGroup())
		}
	}
	return gs
}

// Write copies p into blocks of at most MaxBlock bytes and sends them
// down the stream; the final block carries the delimiter flag, alerting
// "downstream modules that care about write boundaries". Concurrent
// writes are not synchronized with each other, as in the kernel, but a
// single write of <= MaxBlock is atomic (one block). Once a hangup has
// reached the device end, read or not, Write fails.
func (s *Stream) Write(p []byte) (int, error) {
	if closed, hungup := s.rq.state(); closed {
		return 0, ErrClosed
	} else if hungup {
		return 0, ErrHungup
	}
	s.cfg.RLock()
	if s.out != nil && s.topWrite.next == &s.devWrite {
		// Nothing pushed: the message is the transport's as it is.
		defer s.cfg.RUnlock()
		return s.out.Write(p)
	}
	s.cfg.RUnlock()
	total := 0
	for {
		n := len(p) - total
		if n > MaxBlock {
			n = MaxBlock
		}
		b := NewBlock(p[total : total+n])
		total += n
		b.Delim = total == len(p)
		// The read lock is held across the whole put chain: a
		// concurrent push or pop (which takes the lock exclusively)
		// cannot unsplice a queue while a block is traversing it, so
		// reconfiguration under load neither drops nor reorders data.
		s.cfg.RLock()
		s.topWrite.PutNext(b)
		s.cfg.RUnlock()
		if total == len(p) {
			return total, nil
		}
	}
}

// WriteCtl sends a control request down the stream. The stream system
// itself intercepts and interprets "push <name>", "pop", and "hangup";
// all other control blocks pass down for the modules to parse
// (§2.4.1).
func (s *Stream) WriteCtl(cmd string) error {
	if closed, _ := s.rq.state(); closed {
		return ErrClosed
	}
	fields := strings.Fields(cmd)
	if len(fields) > 0 {
		switch fields[0] {
		case "push":
			// "push name [args...]": anything after the module name is
			// the module's argument string, handed to its Open hook
			// (e.g. "push batch 2048 2ms").
			if len(fields) < 2 {
				return ErrUnknownMod
			}
			var arg any
			if len(fields) > 2 {
				arg = strings.Join(fields[2:], " ")
			}
			return s.PushName(fields[1], arg)
		case "pop":
			return s.Pop()
		case "hangup":
			s.HangupUp()
			return nil
		}
	}
	s.cfg.RLock()
	s.topWrite.PutNext(NewCtlBlock(cmd))
	s.cfg.RUnlock()
	return nil
}

// Read reads queued data from the top of the stream under the
// per-stream read lock. It returns when the count is reached or a
// delimited block boundary is encountered; a partially-read block's
// remainder stays queued, keeping the byte stream contiguous.
func (s *Stream) Read(p []byte) (int, error) {
	s.rlock.Lock()
	defer s.rlock.Unlock()
	total := 0
	for total < len(p) || len(p) == 0 {
		// Wait only for the first block: an undelimited one is
		// followed only by what is already queued.
		b, err := s.next(total == 0)
		if b == nil {
			if total > 0 || err == nil {
				return total, nil
			}
			if err == ErrHungup {
				return 0, io.EOF
			}
			return 0, err
		}
		if b.Type == BlockCtl {
			b.Free()
			continue // control information is not data
		}
		n := copy(p[total:], b.Bytes())
		total += n
		if n < b.Len() {
			b.Consume(n)
			s.rq.putback(b)
			return total, nil
		}
		delim := b.Delim
		b.Free()
		if delim || total == len(p) {
			return total, nil
		}
	}
	return total, nil
}

// next returns the next block at the top of the stream. While there is
// none it carries what the device end has queued up through the
// modules, which may absorb a block or make several of it; it waits for
// the device only if wait is set, and otherwise returns nil, nil once
// nothing is queued. The module-list lock is held only to carry a block
// already taken, never across the wait.
func (s *Stream) next(wait bool) (*Block, error) {
	for {
		b, up, err := s.rq.take(wait)
		if !up {
			return b, err
		}
		if b == nil {
			// What the device queued before it hung up is carried: the
			// hangup goes up now, once, and marks the top.
			b = block.Control(BlockHangup, "")
		}
		s.cfg.RLock()
		s.devUp.PutNext(b)
		s.cfg.RUnlock()
	}
}

// Produce queues a block at the device end — what a device interrupt
// handler does with received data (§2.4.2); the reading process
// carries it up through the modules. It runs no module code, takes no
// module-list lock and never parks, Plan 9's qproduce: while the
// device end holds the stream's limit, unread, it frees b and reports
// false. A line that serves many conversations delivers through it, so
// one that nobody reads cannot hold the others' data behind its own; a
// line that may lose nothing delivers with Deliver what Reserve paid
// for. The device sets Delim on a block that ends a message; a device
// that only borrows its receive buffer copies it first (NewBlock). A
// device hangs up with HangupUp, not with a block.
func (s *Stream) Produce(b *Block) bool {
	q := &s.rq
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.fullLocked() {
		b.Free()
		return false
	}
	q.putLocked(b)
	return true
}

// Reserve is a sender's credit on a line with no flow control of its
// own (the UART, Cyclone's fiber, a pipe's other end) that delivers to
// this stream: it parks while the device end, with what earlier
// reservations still have on the line, holds the stream's limit, then
// counts n more bytes on the line. It is the device end's one put that
// parks, and that park is the writer's backpressure, so only a writing
// process may take it. The line hands each such block over with
// Deliver, so its event neither parks nor loses one; a line that
// dropped a block would keep its bytes counted. It fails once the
// stream is closed or hung up.
func (s *Stream) Reserve(n int) error {
	vclock.MightPark(s.clk, "Stream.Reserve")
	q := &s.rq
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.in.n+q.owed >= q.limit && !q.closed && !q.hungup {
		q.wwait.Wait()
	}
	if q.closed || q.hungup {
		return ErrHungup
	}
	q.owed += n
	return nil
}

// Deliver queues a block Reserve counted on the line. It never parks
// or refuses.
func (s *Stream) Deliver(b *Block) {
	q := &s.rq
	q.mu.Lock()
	defer q.mu.Unlock()
	q.owed = max(q.owed-b.Len(), 0)
	q.putLocked(b)
}

// Full reports whether Produce would refuse now: a device that admits
// a message before it has the whole of it asks at its first piece.
func (s *Stream) Full() bool {
	s.rq.mu.Lock()
	defer s.rq.mu.Unlock()
	return s.rq.fullLocked()
}

// HangupUp hangs the stream up at the device end (§2.4.1): writers
// fail at once; readers drain what was queued, then the hangup goes up
// through the modules and they see EOF. It never parks.
func (s *Stream) HangupUp() { s.rq.hangup() }

// Close destroys the stream: queued data is discarded, all blocked
// readers and writers are woken, and modules are closed top-down.
func (s *Stream) Close() error {
	// The device end dies first: a downstream put chain that loops back
	// into it can be parked on its flow-control limit holding the config
	// read lock, and the Pops below need that lock exclusively. Closing
	// rq wakes that writer (the block is discarded on the dying stream)
	// so the Pops can proceed — and each Pop's Drain still flushes
	// module-held data out the device end, which stays functional until
	// the stream is fully torn down.
	if !s.rq.close() {
		return nil
	}
	for s.Pop() == nil {
	}
	return nil
}

// QueuedBytes reports the bytes received and not yet read: those queued
// at the device end and those carried up to the top.
func (s *Stream) QueuedBytes() int {
	s.rq.mu.Lock()
	defer s.rq.mu.Unlock()
	return s.rq.in.n + s.rq.top.n
}

// rcvQueue is the stream's one queue. The device end queues on in,
// refused (Produce) while in holds the limit, or on a credit that
// parked (Reserve) while in and what is on the line held it; the
// reader takes from in, carries each block up through the modules, and
// what reaches the top waits on top until Read copies it out. One lock
// guards both lists and the flags. Only the device, the reader and
// Close touch it, and the reader holds the stream's read lock, so at
// most one reader ever waits on rwait.
type rcvQueue struct {
	mu     vclock.Lock
	rwait  vclock.Cond // the reader waiting for the device
	wwait  vclock.Cond // senders waiting in Reserve for room
	in     blist       // queued by the device, not yet carried up
	top    blist       // carried up, not yet read
	owed   int         // bytes Reserve counted on the line, not yet delivered
	limit  int
	closed bool
	hungup bool // the device hung up: writes fail
	eof    bool // the hangup reached the top: reads see EOF
}

func (q *rcvQueue) init(ck vclock.Clock, limit int) {
	q.limit = limit
	q.mu.Init(ck)
	q.rwait.Init(ck, &q.mu)
	q.wwait.Init(ck, &q.mu)
}

// fullLocked is flow control's one rule: in holds the limit, and the
// stream is neither closed nor hung up.
func (q *rcvQueue) fullLocked() bool {
	return q.in.n >= q.limit && !q.closed && !q.hungup
}

// putLocked adds a device's block to in and wakes the reader.
func (q *rcvQueue) putLocked(b *Block) {
	if q.closed {
		b.Free() // data discarded on a dying stream
		return
	}
	q.in.push(b)
	q.rwait.Broadcast()
}

// topPut ends the up direction: a block the modules carried up waits
// on top for Read, and the hangup marks the stream's end of file.
func topPut(tq *Queue, b *Block) {
	q := &tq.s.rq
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case b.Type == BlockHangup:
		q.eof = true
		b.Free()
	case q.closed:
		b.Free()
	default:
		q.top.push(b)
	}
}

// take returns the reader's next block: one on top, ready to read
// (up false), or else one the device queued, to carry up (up true; nil
// for the hangup once in is drained). With neither it says why none
// will come, ErrClosed or ErrHungup, or, unless wait is set, returns
// nil while one may.
func (q *rcvQueue) take(wait bool) (b *Block, up bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.top.first != nil:
			return q.top.pop(), false, nil
		case q.closed:
			return nil, false, ErrClosed
		case q.eof:
			return nil, false, ErrHungup
		case q.in.first != nil:
			b = q.in.pop()
			q.wwait.Broadcast()
			return b, true, nil
		case q.hungup:
			return nil, true, nil
		case !wait:
			return nil, false, nil
		}
		q.rwait.Wait()
	}
}

// putback returns the unread rest of a block to the head of top. The
// reader that took it still holds the read lock, so no one waits.
func (q *rcvQueue) putback(b *Block) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		b.Free() // the stream closed under the reader: discarded
		return
	}
	q.top.pushFront(b)
}

// hangup marks the device end hung up: devices stop waiting for room,
// and the reader drains in, then carries the hangup up. It never parks.
func (q *rcvQueue) hangup() {
	q.mu.Lock()
	q.hungup = true
	q.rwait.Broadcast()
	q.wwait.Broadcast()
	q.mu.Unlock()
}

// state reports whether the stream is closed and whether its device
// end hung up.
func (q *rcvQueue) state() (closed, hungup bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed, q.hungup
}

// close marks the queue dead, frees the blocks on both lists (a closed
// stream's data is discarded) and wakes all waiters. It reports false
// if the queue was closed already.
func (q *rcvQueue) close() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	q.in.free()
	q.top.free()
	q.rwait.Broadcast()
	q.wwait.Broadcast()
	return true
}

// blist is a list of blocks linked through Next, with their byte count.
type blist struct {
	first, last *Block
	n           int
}

func (l *blist) push(b *Block) {
	if b.Shared() {
		// The link is one field: a block fanned out by Ref would sit on
		// every holder's list at once.
		panic("streams: queueing a shared block")
	}
	b.Next = nil
	if l.last == nil {
		l.first = b
	} else {
		l.last.Next = b
	}
	l.last = b
	l.n += b.Len()
}

func (l *blist) pushFront(b *Block) {
	b.Next = l.first
	l.first = b
	if l.last == nil {
		l.last = b
	}
	l.n += b.Len()
}

func (l *blist) pop() *Block {
	b := l.first
	l.first = b.Next
	if l.first == nil {
		l.last = nil
	}
	b.Next = nil
	l.n -= b.Len()
	return b
}

func (l *blist) free() {
	for l.first != nil {
		l.pop().Free()
	}
}

// chainLock is the reader-writer lock guarding the module list against
// reconfiguration: every put chain holds it shared for its whole
// traversal; push and pop take it exclusively, so an unsplice can
// never happen under a block in flight. A put chain can park while
// holding the read side — flow control in a queueing module, or a
// device write waiting for its transport's window — so the waiters
// must park through the stream's clock: a plain sync.RWMutex waiter
// never yields its virtual scheduler token and would wedge a
// discrete-event run (the same rule vclock.Mutex follows). Writers have
// priority over new readers, so a pop under continuous traffic is
// bounded by the chains already in flight, not starved by new ones —
// which relies on every chain in flight finishing on its own. A device
// write waits only for its transport's window, which the peer's
// protocol opens as data arrives, and an arrival never waits on a
// chain: a delivery takes no chain lock, and the reader carries what it
// queued only after it has it in hand. Were an arrival put up the
// chain, it could be held behind a waiting push on the peer, and this
// end's window with it: four parties, each waiting on the next.
type chainLock struct {
	ck      vclock.Clock
	mu      vclock.Lock
	rcond   vclock.Cond // readers waiting for the writer to leave
	wcond   vclock.Cond // writers waiting for readers to drain
	readers int
	writer  bool
	wwait   int
}

func (l *chainLock) init(ck vclock.Clock) {
	l.ck = ck
	l.mu.Init(ck)
	l.rcond.Init(ck, &l.mu)
	l.wcond.Init(ck, &l.mu)
}

func (l *chainLock) RLock() {
	vclock.MightPark(l.ck, "chainLock.RLock")
	l.mu.Lock()
	for l.writer || l.wwait > 0 {
		l.rcond.Wait()
	}
	l.readers++
	l.mu.Unlock()
}

func (l *chainLock) RUnlock() {
	l.mu.Lock()
	l.readers--
	if l.readers == 0 {
		l.wcond.Broadcast()
	}
	l.mu.Unlock()
}

func (l *chainLock) Lock() {
	vclock.MightPark(l.ck, "chainLock.Lock")
	l.mu.Lock()
	l.wwait++
	for l.writer || l.readers > 0 {
		l.wcond.Wait()
	}
	l.wwait--
	l.writer = true
	l.mu.Unlock()
}

func (l *chainLock) Unlock() {
	l.mu.Lock()
	l.writer = false
	l.rcond.Broadcast()
	l.wcond.Broadcast()
	l.mu.Unlock()
}
