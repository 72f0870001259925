package vclock

import (
	"sync"
	"time"
)

// Deadline is a conversation's one timer, for its whole life. The owner
// says when its next resend is due (zero while nothing is outstanding)
// and what to send; the deadline adds death, for a peer silent too long
// since a wait on it began, and the end of a close's linger. The owner
// calls Update under its lock wherever that state moves, Heard when the
// peer answers, End once it closes. Only an earlier deadline touches the
// clock: a later one is met by the timer running early and re-arming,
// and one that goes away stops it. The timer lives inside the Deadline
// and runs the Deadline itself, so arming it allocates nothing; a
// Deadline must not be copied once armed.
type Deadline struct {
	ck      Clock
	mu      sync.Locker
	silence time.Duration
	o       Owner

	heard   time.Time // the peer last answered, or a wait on it began
	ends    time.Time // when end runs; zero while it is not set
	waiting bool      // due was nonzero at the last Update
	t       Timer
	armed   time.Time // when t runs; zero while it is not pending
	firing  bool      // Fire, Die or End is running, perhaps without mu
}

// Owner is what a Deadline keeps time for. Its methods run with the
// owner's lock held; Fire, Die and End may drop it around a send that
// parks or a lock that comes before it, and nothing overlaps them.
type Owner interface {
	// Due is when the next resend is due, zero while nothing is
	// outstanding.
	Due() time.Time
	// Fire resends what is due.
	Fire()
	// Die gives up on a peer silent too long.
	Die()
	// End ends a close's linger, at the instant End set.
	End()
}

// Init readies d for an owner o locked by mu that gives up on a peer
// silent for silence.
func (d *Deadline) Init(ck Clock, mu sync.Locker, silence time.Duration, o Owner) {
	d.ck, d.mu, d.silence, d.o = ck, mu, silence, o
}

// Heard notes the peer answering.
func (d *Deadline) Heard() { d.heard = d.ck.Now() }

// End has the owner's End run once at at, before anything due then; a later End
// replaces it.
func (d *Deadline) End(at time.Time) {
	d.ends = at
	d.Update()
}

// Armed is when the clock timer will next run, zero if it will not.
func (d *Deadline) Armed() time.Time { return d.armed }

// next is the earliest of the owner's due time, death and the end.
func (d *Deadline) next() time.Time {
	at := d.o.Due()
	if !d.waiting && !at.IsZero() {
		d.heard = d.ck.Now()
	}
	d.waiting = !at.IsZero()
	if death := d.heard.Add(d.silence); d.waiting && death.Before(at) {
		at = death
	}
	if !d.ends.IsZero() && (at.IsZero() || d.ends.Before(at)) {
		return d.ends
	}
	return at
}

// Update re-reads the owner's due time. With only the end left, the
// timer moves to it rather than running early.
func (d *Deadline) Update() {
	switch at := d.next(); {
	case d.firing: // run updates once Fire, Die or End returns
	case at.IsZero():
		if !d.armed.IsZero() {
			d.t.Stop()
			d.armed = time.Time{}
		}
	case d.armed.IsZero() || at.Before(d.armed) || at.Equal(d.ends) && !at.Equal(d.armed):
		d.armed = at
		d.t.arm(d.ck, at, event{fn: d})
	}
}

// run is the timer's expiry: what is due at the instant it runs.
func (d *Deadline) run() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.firing {
		return
	}
	d.armed = time.Time{}
	if now, at := d.ck.Now(), d.next(); !at.IsZero() && !now.Before(at) {
		d.firing = true
		switch {
		case !d.ends.IsZero() && !now.Before(d.ends):
			d.ends = time.Time{}
			d.o.End()
		case now.Before(d.heard.Add(d.silence)):
			d.o.Fire()
		default:
			d.o.Die()
		}
		d.firing = false
	}
	d.Update()
}
