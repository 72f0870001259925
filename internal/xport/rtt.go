package xport

import (
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// RTT is the adaptive round-trip timer of §3: "a round-trip timer
// calculates acknowledge and retransmission times in terms of the
// network speed". One transmission is timed at a time, from Start to
// the acknowledgement that covers it; each sample moves a smoothed
// mean and mean deviation (gains 1/8 and 1/4), from which RTO derives
// the retransmission timeout. A conversation embeds one, under its
// own lock.
type RTT struct {
	SRTT, Mdev time.Duration // zero until the first sample

	ck     vclock.Clock
	hist   *obs.Hist // every sample is also recorded here
	timing bool
	seq    uint32 // the acknowledgement that ends the sample
	at     time.Time
}

// Init sets the clock samples are measured on and the histogram that
// records them.
func (r *RTT) Init(ck vclock.Clock, hist *obs.Hist) { r.ck, r.hist = ck, hist }

// Start times the transmission going out now, which an acknowledgement
// of seq or beyond will cover — unless a sample is already in flight.
func (r *RTT) Start(seq uint32) {
	if !r.timing {
		r.timing, r.seq, r.at = true, seq, r.ck.Now()
	}
}

// Ack completes the sample in flight if ack covers it.
func (r *RTT) Ack(ack uint32) {
	if r.timing && ack >= r.seq {
		r.timing = false
		d := r.ck.Since(r.at)
		r.hist.Observe(d)
		r.Sample(d)
	}
}

// Cancel abandons the sample in flight. Karn's rule: once anything has
// been retransmitted an acknowledgement no longer says which copy it
// answers, so it cannot be timed.
func (r *RTT) Cancel() { r.timing = false }

// Sample folds one measurement into the estimate.
func (r *RTT) Sample(d time.Duration) {
	if r.SRTT == 0 {
		r.SRTT, r.Mdev = d, d/2
		return
	}
	diff := d - r.SRTT
	r.SRTT += diff / 8
	if diff < 0 {
		diff = -diff
	}
	r.Mdev += (diff - r.Mdev) / 4
}

// RTO is the retransmission timeout: the mean plus four deviations,
// held within [lo, hi]; initial before anything has been measured.
func (r *RTT) RTO(lo, hi, initial time.Duration) time.Duration {
	if r.SRTT == 0 {
		return initial
	}
	return min(max(r.SRTT+4*r.Mdev, lo), hi)
}
