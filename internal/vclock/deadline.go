package vclock

import (
	"sync"
	"time"
)

// Deadline is a conversation's one timer. The owner says when its next
// resend is due (zero while nothing is outstanding) and what to send;
// the deadline adds death, for a peer silent too long since a wait on
// it began. The owner calls Update under its lock wherever that state
// moves, Heard when the peer answers. Only an earlier deadline touches
// the clock: a later one is met by the timer running early and
// re-arming, and one that goes away stops it.
type Deadline struct {
	ck        Clock
	mu        sync.Locker
	silence   time.Duration
	due       func() time.Time
	fire, die func()

	heard   time.Time // the peer last answered, or a wait on it began
	waiting bool      // due was nonzero at the last Update
	t       *Timer
	armed   time.Time // when t runs; zero while it is not pending
	firing  bool      // fire or die is running, perhaps without mu
}

// Init readies d for an owner locked by mu that gives up on a peer
// silent for silence. due, fire and die run with mu held; fire and die
// may drop it around a send that parks, and nothing overlaps them.
func (d *Deadline) Init(ck Clock, mu sync.Locker, silence time.Duration, due func() time.Time, fire, die func()) {
	d.ck, d.mu, d.silence, d.due, d.fire, d.die = ck, mu, silence, due, fire, die
}

// Heard notes the peer answering.
func (d *Deadline) Heard() { d.heard = d.ck.Now() }

// Armed is when the clock timer will next run, zero if it will not.
func (d *Deadline) Armed() time.Time { return d.armed }

// next is the earlier of the owner's due time and death.
func (d *Deadline) next() time.Time {
	at := d.due()
	if !d.waiting && !at.IsZero() {
		d.heard = d.ck.Now()
	}
	d.waiting = !at.IsZero()
	if death := d.heard.Add(d.silence); d.waiting && death.Before(at) {
		return death
	}
	return at
}

// Update re-reads the owner's due time.
func (d *Deadline) Update() {
	switch at := d.next(); {
	case d.firing: // expire updates once fire or die returns
	case at.IsZero():
		if !d.armed.IsZero() {
			d.t.Stop()
			d.armed = time.Time{}
		}
	case d.armed.IsZero() || at.Before(d.armed):
		d.armed = at
		if d.t == nil {
			d.t = d.ck.AfterFunc(at.Sub(d.ck.Now()), d.expire)
		} else {
			d.t.Reset(at.Sub(d.ck.Now()))
		}
	}
}

func (d *Deadline) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.firing {
		return
	}
	d.armed = time.Time{}
	if now, at := d.ck.Now(), d.next(); !at.IsZero() && !now.Before(at) {
		d.firing = true
		if now.Before(d.heard.Add(d.silence)) {
			d.fire()
		} else {
			d.die()
		}
		d.firing = false
	}
	d.Update()
}
