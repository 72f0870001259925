package streams

import (
	"io"
	"strings"
	"sync"

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
//	  topRead (up, queueing)   topWrite (down, pass)
//	  [pushed modules ...]
//	  devUp (up, pass)         devWrite (down, device output)
//	device receive/transmit
type Stream struct {
	limit int
	clk   vclock.Clock

	cfg      chainLock // guards module list changes vs. traffic
	topRead  *Queue    // up direction terminator: user reads here
	topWrite *Queue    // down direction entry: user writes here
	devUp    *Queue    // up direction entry: device injects here
	devWrite *Queue    // down direction terminator: device output

	// rlock is the per-stream read lock of §2.4.1. A reader holds it while
	// it waits for data, so a second reader queues through the clock.
	rlock vclock.Mutex

	mu      sync.Mutex
	closed  bool
	onClose []func()
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
	s := &Stream{limit: limit, clk: ck}
	s.cfg.init(s.clk)
	s.rlock.Init(s.clk)
	s.topRead = newQueue(s, nil, true, PutQ)
	s.topWrite = newQueue(s, nil, false, PassPut)
	s.devUp = newQueue(s, nil, true, PassPut)
	s.devWrite = newQueue(s, nil, false, func(q *Queue, b *Block) {
		if dev != nil {
			dev(b) // ownership passes to the device
		} else {
			b.Free()
		}
	})
	// Initially no modules: writes go straight to the device, device
	// input goes straight to the read queue.
	s.topWrite.next = s.devWrite
	s.devUp.next = s.topRead
	return s
}

// OnClose registers a hook run once when the stream is destroyed.
func (s *Stream) OnClose(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose = append(s.onClose, f)
}

// Clock returns the stream's time source. Modules must take their
// timers from here — never from the real clock directly — so a stream
// inside a discrete-event simulation stays deterministic.
func (s *Stream) Clock() vclock.Clock { return s.clk }

// Push adds an instance of module qi to the top of the stream
// (§2.4.1 "push name"), passing arg to its Open hook.
func (s *Stream) Push(qi *Qinfo, arg any) error {
	up := newQueue(s, qi, true, qi.Iput)
	down := newQueue(s, qi, false, qi.Oput)
	up.other, down.other = down, up
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
	up.next = s.topRead
	down.next = s.topWrite.next
	s.topWrite.next = down
	// Find the queue currently feeding topRead and repoint it.
	prev := s.prevUpLocked(s.topRead)
	prev.next = up
	s.cfg.Unlock()
	return nil
}

// PushName pushes a registered module by name.
func (s *Stream) PushName(name string, arg any) error {
	qi, ok := Lookup(name)
	if !ok {
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
	if up.qi != nil && up.qi.Close != nil {
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
// before it.
func (s *Stream) popModule() *Queue {
	s.cfg.Lock()
	defer s.cfg.Unlock()
	down := s.topWrite.next
	if down == s.devWrite || down == nil {
		return nil
	}
	up := down.other
	if up.qi != nil && up.qi.Drain != nil {
		up.qi.Drain(up)
	}
	s.topWrite.next = down.next
	prev := s.prevUpLocked(up)
	prev.next = up.next
	up.close()
	down.close()
	return up
}

// prevUpLocked finds the queue whose next (in the up direction) is q.
func (s *Stream) prevUpLocked(q *Queue) *Queue {
	cur := s.devUp
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
	for q := s.topWrite.next; q != nil && q != s.devWrite; q = q.next {
		if q.other == nil {
			continue
		}
		if src, ok := q.other.Aux.(StatsSource); ok {
			gs = append(gs, src.StatsGroup())
		}
	}
	return gs
}

// Modules returns the names of pushed modules, top first.
func (s *Stream) Modules() []string {
	s.cfg.RLock()
	defer s.cfg.RUnlock()
	var names []string
	for q := s.topWrite.next; q != nil && q != s.devWrite; q = q.next {
		if q.qi != nil {
			names = append(names, q.qi.Name)
		}
	}
	return names
}

// Write copies p into blocks of at most MaxBlock bytes and sends them
// down the stream; the final block carries the delimiter flag, alerting
// "downstream modules that care about write boundaries". Concurrent
// writes are not synchronized with each other, as in the kernel, but a
// single write of <= MaxBlock is atomic (one block).
func (s *Stream) Write(p []byte) (int, error) {
	if s.isClosed() {
		return 0, ErrClosed
	}
	if s.topRead.Hungup() {
		return 0, ErrHungup
	}
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
		s.topWrite.Put(b)
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
	if s.isClosed() {
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
	s.topWrite.Put(NewCtlBlock(cmd))
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
		b, err := s.topRead.Get()
		if err != nil {
			if total > 0 {
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
			s.topRead.putback(b)
			return total, nil
		}
		delim := b.Delim
		b.Free()
		if delim {
			return total, nil
		}
		if total == len(p) {
			return total, nil
		}
		// Undelimited and buffer not full: take more only if
		// already queued; otherwise return what we have.
		if s.topRead.Len() == 0 {
			return total, nil
		}
	}
	return total, nil
}

// DeviceUp injects a block at the device end, moving upstream through
// the module Iputs to the read queue — what a device interrupt
// handler's kernel process does with received data (§2.4.2). The
// device sets Delim on a block that ends a message; a device that only
// borrows its receive buffer copies it first (NewBlock).
func (s *Stream) DeviceUp(b *Block) {
	// Held across the chain for the same reason as Write: see there.
	s.cfg.RLock()
	s.devUp.Put(b)
	s.cfg.RUnlock()
}

// HangupUp sends a hangup up the stream from the device end (§2.4.1):
// readers drain queued data then see EOF; writers fail.
func (s *Stream) HangupUp() {
	s.DeviceUp(block.Control(BlockHangup, ""))
}

// Close destroys the stream: modules are closed top-down, queued data
// is discarded, and all blocked readers and writers are woken.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	hooks := s.onClose
	s.mu.Unlock()
	// The read queue dies first: an upstream put chain parked on its
	// flow-control limit holds the config read lock, and the Pops below
	// need it exclusively. Closing topRead wakes that writer (the block
	// is discarded on the dying stream) so the Pops can proceed — and
	// each Pop's Drain still flushes module-held data out the device
	// end, which stays functional until the stream is fully torn down.
	s.topRead.close()
	for {
		if err := s.Pop(); err != nil {
			break
		}
	}
	s.topWrite.close()
	s.devUp.close()
	s.devWrite.close()
	for _, f := range hooks {
		f()
	}
	return nil
}

func (s *Stream) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// QueuedBytes reports bytes waiting at the top read queue.
func (s *Stream) QueuedBytes() int { return s.topRead.Len() }

// chainLock is the reader-writer lock guarding the module list against
// reconfiguration: every put chain holds it shared for its whole
// traversal; push and pop take it exclusively, so an unsplice can
// never happen under a block in flight. A put chain can park while
// holding the read side — flow control in a queueing module, or a
// bandwidth-paced device write — so the waiters must park through the
// stream's clock: a plain sync.RWMutex waiter never yields its virtual
// scheduler token and would wedge a discrete-event run (the same rule
// vclock.Mutex follows). Writers have priority over new readers, so a
// pop under continuous traffic is bounded by the chains already in
// flight, not starved by new ones — which relies on every chain in
// flight finishing on its own: a device write must not wait on the
// peer's upstream put chain. Over a rendezvous transport (net.Pipe) it
// does — the write completes only when the peer's pump reads, and that
// pump can be a new reader held at DeviceUp behind the peer's own
// waiting writer, whose in-flight chain is in turn waiting on this
// end's pump: four parties, each waiting on the next. Every transport
// in this tree queues at least a window, so the write returns.
type chainLock struct {
	mu      sync.Mutex
	rcond   vclock.Cond // readers waiting for the writer to leave
	wcond   vclock.Cond // writers waiting for readers to drain
	readers int
	writer  bool
	wwait   int
}

func (l *chainLock) init(ck vclock.Clock) {
	l.rcond.Init(ck, &l.mu)
	l.wcond.Init(ck, &l.mu)
}

func (l *chainLock) RLock() {
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
