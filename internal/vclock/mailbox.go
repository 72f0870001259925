package vclock

import (
	"errors"
	"sync"
)

// ErrClosed reports a send on a closed Mailbox.
var ErrClosed = errors.New("vclock: mailbox closed")

// Mailbox is a clock-aware bounded FIFO: the channel replacement for
// code that must park cooperatively under the virtual clock. Receive
// order, wake order, and close semantics are deterministic under a
// virtual clock; under the real clock it behaves like a mutex-guarded
// channel.
//
// Close semantics mirror a closed channel that drains: Recv keeps
// returning queued values after Close and reports ok=false only once
// the mailbox is both closed and empty. CloseDrain instead hands the
// leftovers back to the closer, for queues whose items need explicit
// release.
type Mailbox[T any] struct {
	mu     sync.Mutex
	ne     Cond // not empty
	nf     Cond // not full
	buf    []T
	head   int
	cnt    int
	bound  int // <= 0: unbounded
	closed bool
}

// NewMailbox returns a Mailbox bound to ck (nil means Real) holding at
// most bound items; bound <= 0 means unbounded (Send never blocks).
func NewMailbox[T any](ck Clock, bound int) *Mailbox[T] {
	m := &Mailbox[T]{bound: bound}
	m.ne.Init(ck, &m.mu)
	m.nf.Init(ck, &m.mu)
	return m
}

func (m *Mailbox[T]) pushLocked(v T) {
	if m.cnt == len(m.buf) {
		n := len(m.buf) * 2
		if n < 4 {
			n = 4
		}
		nb := make([]T, n)
		for i := 0; i < m.cnt; i++ {
			nb[i] = m.buf[(m.head+i)%len(m.buf)]
		}
		m.buf = nb
		m.head = 0
	}
	m.buf[(m.head+m.cnt)%len(m.buf)] = v
	m.cnt++
}

func (m *Mailbox[T]) popLocked() T {
	v := m.buf[m.head]
	var zero T
	m.buf[m.head] = zero
	m.head = (m.head + 1) % len(m.buf)
	m.cnt--
	return v
}

// Send enqueues v, blocking while the mailbox is full. It returns
// ErrClosed if the mailbox is (or becomes) closed before v is queued.
func (m *Mailbox[T]) Send(v T) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed && m.bound > 0 && m.cnt >= m.bound {
		m.nf.wait("Mailbox.Send")
	}
	if m.closed {
		return ErrClosed
	}
	m.pushLocked(v)
	m.ne.Broadcast()
	return nil
}

// TrySend enqueues v without blocking; it reports false when the
// mailbox is full or closed.
func (m *Mailbox[T]) TrySend(v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || (m.bound > 0 && m.cnt >= m.bound) {
		return false
	}
	m.pushLocked(v)
	m.ne.Broadcast()
	return true
}

// Recv dequeues the next value, blocking while the mailbox is empty.
// ok is false once the mailbox is closed and drained.
func (m *Mailbox[T]) Recv() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.cnt == 0 && !m.closed {
		m.ne.wait("Mailbox.Recv")
	}
	if m.cnt == 0 {
		return v, false
	}
	v = m.popLocked()
	m.nf.Broadcast()
	return v, true
}

// TryRecv dequeues without blocking; ok is false when nothing is
// queued.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cnt == 0 {
		return v, false
	}
	v = m.popLocked()
	m.nf.Broadcast()
	return v, true
}

// Close marks the mailbox closed and wakes every blocked sender and
// receiver. Queued values remain readable (Recv drains them first).
// Close is idempotent.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.ne.Broadcast()
	m.nf.Broadcast()
}

// CloseDrain closes the mailbox and returns whatever was queued, for
// callers that must release the leftovers (pooled packets, say)
// rather than let receivers drain them.
func (m *Mailbox[T]) CloseDrain() []T {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	var out []T
	for m.cnt > 0 {
		out = append(out, m.popLocked())
	}
	m.ne.Broadcast()
	m.nf.Broadcast()
	return out
}

// Closed reports whether Close or CloseDrain has been called.
func (m *Mailbox[T]) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Len reports how many values are queued.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cnt
}
