// Impairment model: the faults a simulated medium inflicts beyond
// plain loss. Every decision is a pure function of (seed, wire
// position), so a failing run replays exactly from its seed — the
// deterministic-simulation discipline that makes protocol torture
// results reproducible instead of anecdotal.
package medium

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/vclock"
)

// Window is a scheduled partition in wire-position space: message
// number n (counting every transmission on the link, including
// retransmissions) is dropped while From <= n < To. Counting messages
// instead of wall time keeps partitions deterministic: the same seed
// and traffic always partition — and heal — at the same points.
type Window struct {
	From, To int64
}

// Contains reports whether wire position n falls inside the window.
func (w Window) Contains(n int64) bool { return n >= w.From && n < w.To }

// Impairment describes the fault model of a link. The zero value
// inflicts nothing; any non-zero field arms the impairer.
type Impairment struct {
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and released
	// only after later messages have overtaken it.
	Reorder float64
	// ReorderDepth bounds how many later messages overtake a held
	// message (default 3). Protocols with small sequence spaces rely
	// on their medium bounding misordering — URP's mod-8 numbering
	// needs depth below its window, exactly as real Datakit
	// guaranteed — so scenarios must keep this within the protocol's
	// tolerance.
	ReorderDepth int
	// Corrupt is the probability a message has CorruptBits random
	// bits flipped in flight.
	Corrupt float64
	// CorruptBits is how many bits flip per corrupted message
	// (default 1).
	CorruptBits int
	// Jitter adds a pseudo-random extra propagation delay in
	// [0,Jitter) to each message.
	Jitter time.Duration
	// BurstP and BurstR drive the Gilbert–Elliott two-state loss
	// chain: per message, a good link enters the bursty state with
	// probability BurstP and leaves it with probability BurstR; while
	// bursty, messages drop with probability BurstLoss (default 1).
	BurstP, BurstR, BurstLoss float64
	// Partitions are scheduled outages; see Window.
	Partitions []Window
	// Record keeps the per-message Decision schedule for Schedule().
	// Memory is bounded (old decisions are kept up to a cap), so only
	// tests and the chaos driver should set it.
	Record bool
}

// String renders only the armed knobs, for scenario reports.
func (im Impairment) String() string {
	var b strings.Builder
	part := func(format string, args ...any) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, format, args...)
	}
	if im.Duplicate > 0 {
		part("dup=%g", im.Duplicate)
	}
	if im.Reorder > 0 {
		part("reorder=%g/%d", im.Reorder, im.ReorderDepth)
	}
	if im.Corrupt > 0 {
		part("corrupt=%g/%db", im.Corrupt, im.CorruptBits)
	}
	if im.Jitter > 0 {
		part("jitter=%v", im.Jitter)
	}
	if im.BurstP > 0 {
		part("burst=%g/%g/%g", im.BurstP, im.BurstR, im.BurstLoss)
	}
	for _, w := range im.Partitions {
		part("part=[%d,%d)", w.From, w.To)
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Armed reports whether the impairment model (or baseline loss)
// requires per-message decisions at all; unarmed links skip the
// impairer and, on an Ethernet, the FCS.
func (im Impairment) Armed(loss float64) bool {
	return loss > 0 || im.Duplicate > 0 || im.Reorder > 0 || im.Corrupt > 0 ||
		im.Jitter > 0 || im.BurstP > 0 || len(im.Partitions) > 0 || im.Record
}

// Decision records what the impairer did to one transmitted message.
type Decision struct {
	Index   int64         // wire position
	Drop    bool          // vanished entirely
	Reason  string        // "loss", "burst", or "partition" when Drop
	Dup     bool          // delivered twice
	Corrupt bool          // bits flipped
	Bits    []int         // which bit offsets flipped
	Hold    int           // messages that overtake this one (reorder)
	Jitter  time.Duration // extra propagation delay
}

// String renders the decision compactly for failure reports.
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d", d.Index)
	switch {
	case d.Drop:
		fmt.Fprintf(&b, " drop(%s)", d.Reason)
	default:
		if d.Corrupt {
			fmt.Fprintf(&b, " corrupt%v", d.Bits)
		}
		if d.Dup {
			b.WriteString(" dup")
		}
		if d.Hold > 0 {
			fmt.Fprintf(&b, " hold=%d", d.Hold)
		}
		if d.Jitter > 0 {
			fmt.Fprintf(&b, " jitter=%s", d.Jitter)
		}
	}
	return b.String()
}

// Counts aggregates an impairer's activity.
type Counts struct {
	Sent       int64 // messages offered to the wire
	Emitted    int64 // copies actually put on the wire (incl. dups and releases)
	Dropped    int64 // vanished (loss, burst, partition)
	Duplicated int64 // extra copies emitted
	Corrupted  int64 // messages with flipped bits
	Held       int64 // messages held back for reordering
	Pending    int64 // held messages not yet released
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Sent += other.Sent
	c.Emitted += other.Emitted
	c.Dropped += other.Dropped
	c.Duplicated += other.Duplicated
	c.Corrupted += other.Corrupted
	c.Held += other.Held
	c.Pending += other.Pending
}

// String renders the counters for reports.
func (c Counts) String() string {
	return fmt.Sprintf("sent=%d emitted=%d dropped=%d dup=%d corrupt=%d held=%d pending=%d",
		c.Sent, c.Emitted, c.Dropped, c.Duplicated, c.Corrupted, c.Held, c.Pending)
}

// Emission is one copy the impairer puts on the wire: the (possibly
// corrupted) bytes, any extra propagation delay beyond the link
// latency, and the route of the message it copies. Data is a pooled
// buffer (block.GetBytes) the caller owns: it goes on the wire, or
// back with block.PutBytes.
type Emission struct {
	Data  []byte
	Delay time.Duration
	Route any
}

// maxHeld caps the reorder hold queue so Reorder=1 cannot swallow the
// wire: when the queue is full further messages pass straight through.
const maxHeld = 16

// maxSched caps the recorded schedule so Record on a long run stays
// bounded.
const maxSched = 1 << 16

// Impairer applies an Impairment to a message sequence. The random
// draws are a pure function of (seed, wire position), so two impairers
// with the same seed fed the same sequence make identical decisions.
// Sequential state (the burst chain and the reorder hold queue) is
// mutex-guarded; media call Apply from their single serialization
// point, which also defines the wire-position order.
type Impairer struct {
	imp  Impairment
	loss float64
	seed int64

	mu     vclock.Lock
	index  int64
	burst  bool       // Gilbert–Elliott state
	held   []heldMsg  // messages waiting out their reorder hold
	sched  []Decision // recorded schedule when imp.Record
	counts Counts
}

type heldMsg struct {
	data  []byte
	delay time.Duration
	route any
	left  int // emissions still to pass before release
}

// NewImpairer builds an impairer on ck over baseline loss plus the
// given impairment model, with defaults filled in.
func NewImpairer(ck vclock.Clock, seed int64, loss float64, imp Impairment) *Impairer {
	if imp.ReorderDepth <= 0 {
		imp.ReorderDepth = 3
	}
	if imp.CorruptBits <= 0 {
		imp.CorruptBits = 1
	}
	if imp.BurstLoss <= 0 {
		imp.BurstLoss = 1
	}
	im := &Impairer{imp: imp, loss: loss, seed: seed}
	im.mu.Init(ck)
	return im
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche hash good
// enough to turn (seed, position, draw) into independent uniforms.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Draw identifiers: each independent decision about wire position n
// hashes a distinct k so the uniforms never correlate.
const (
	drawBurstEnter = iota
	drawBurstLeave
	drawLoss
	drawCorrupt
	drawDup
	drawReorder
	drawHoldDepth
	drawJitter
	drawBitBase // bit i of a corrupted message uses drawBitBase+i
)

// draw returns the k'th pseudo-random word for wire position n — a
// pure function of (seed, n, k), which is what makes schedules
// replayable.
func (im *Impairer) draw(n int64, k uint64) uint64 {
	return mix64(mix64(uint64(im.seed)) ^ mix64(uint64(n)<<8^k))
}

// chance rolls probability p for draw k at position n.
func (im *Impairer) chance(p float64, n int64, k uint64) bool {
	if p <= 0 {
		return false
	}
	return float64(im.draw(n, k)>>11)/(1<<53) < p
}

func (im *Impairer) inPartition(n int64) bool {
	for _, w := range im.imp.Partitions {
		if w.Contains(n) {
			return true
		}
	}
	return false
}

func (im *Impairer) record(d Decision) {
	if im.imp.Record && len(im.sched) < maxSched {
		im.sched = append(im.sched, d)
	}
}

// Apply passes one transmitted message through the fault model and
// returns the copies that go on the wire now, in order. An empty
// result means the message vanished — dropped, or held back to be
// released after later traffic overtakes it. Every copy carries route,
// the caller's note of where the message goes, so a held message
// released during a later one's Apply still goes where it was sent.
// Apply never mutates or retains msg; every copy is a pooled buffer.
func (im *Impairer) Apply(msg []byte, route any) []Emission {
	im.mu.Lock()
	defer im.mu.Unlock()
	n := im.index
	im.index++
	im.counts.Sent++
	d := Decision{Index: n}

	// Advance the Gilbert–Elliott chain first so the burst state
	// evolves even across messages a partition eats.
	if im.imp.BurstP > 0 {
		if im.burst {
			if im.chance(im.imp.BurstR, n, drawBurstLeave) {
				im.burst = false
			}
		} else if im.chance(im.imp.BurstP, n, drawBurstEnter) {
			im.burst = true
		}
	}

	switch {
	case im.inPartition(n):
		d.Drop, d.Reason = true, "partition"
	case im.burst && im.chance(im.imp.BurstLoss, n, drawLoss):
		d.Drop, d.Reason = true, "burst"
	case !im.burst && im.chance(im.loss, n, drawLoss):
		d.Drop, d.Reason = true, "loss"
	}
	if d.Drop {
		im.counts.Dropped++
		im.record(d)
		out := im.releaseLocked(nil)
		im.counts.Emitted += int64(len(out))
		return out
	}

	cp := block.GetBytes(len(msg))
	copy(cp, msg)
	if len(cp) > 0 && im.chance(im.imp.Corrupt, n, drawCorrupt) {
		d.Corrupt = true
		im.counts.Corrupted++
		for i := 0; i < im.imp.CorruptBits; i++ {
			bit := int(im.draw(n, drawBitBase+uint64(i)) % uint64(len(cp)*8))
			cp[bit/8] ^= 1 << (bit % 8)
			d.Bits = append(d.Bits, bit)
		}
	}
	if im.imp.Jitter > 0 {
		d.Jitter = time.Duration(im.draw(n, drawJitter) % uint64(im.imp.Jitter))
	}

	// Hold back for reordering: the message leaves the wire now and
	// reappears after Hold later transmissions pass it.
	reorder := len(im.held) < maxHeld && im.chance(im.imp.Reorder, n, drawReorder)
	var out []Emission
	if reorder {
		d.Hold = 1 + int(im.draw(n, drawHoldDepth)%uint64(im.imp.ReorderDepth))
	} else {
		out = append(out, Emission{Data: cp, Delay: d.Jitter, Route: route})
		if im.chance(im.imp.Duplicate, n, drawDup) {
			d.Dup = true
			im.counts.Duplicated++
			dup := block.GetBytes(len(cp))
			copy(dup, cp)
			out = append(out, Emission{Data: dup, Delay: d.Jitter, Route: route})
		}
	}
	im.record(d)
	out = im.releaseLocked(out)
	if reorder {
		im.counts.Held++
		im.counts.Pending++
		im.held = append(im.held, heldMsg{data: cp, delay: d.Jitter, route: route, left: d.Hold})
	}
	im.counts.Emitted += int64(len(out))
	return out
}

// releaseLocked ticks every held message's countdown — once per Apply,
// i.e. once per wire transmission — and appends expired holds after
// the current traffic. Counting transmissions (not emissions) bounds a
// held message's overtakers at exactly its Hold ≤ ReorderDepth
// distinct later messages, the guarantee small-sequence-space
// protocols (URP's mod-8) need from their medium.
func (im *Impairer) releaseLocked(out []Emission) []Emission {
	if len(im.held) == 0 {
		return out
	}
	keep := im.held[:0]
	for _, h := range im.held {
		h.left--
		if h.left <= 0 {
			out = append(out, Emission{Data: h.data, Delay: h.delay, Route: h.route})
			im.counts.Pending--
		} else {
			keep = append(keep, h)
		}
	}
	im.held = keep
	return out
}

// Close returns the messages still held back for reordering to the
// pool: their line is closing, and they will never be emitted.
func (im *Impairer) Close() {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, h := range im.held {
		block.PutBytes(h.data)
	}
	im.held = nil
}

// Schedule returns a copy of the recorded decisions (requires
// Impairment.Record).
func (im *Impairer) Schedule() []Decision {
	im.mu.Lock()
	defer im.mu.Unlock()
	return append([]Decision(nil), im.sched...)
}

// Counts returns a snapshot of the activity counters.
func (im *Impairer) Counts() Counts {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.counts
}
