// Package torture is the protocol torture harness: it runs real
// conversations — IL, TCP, URP/Datakit, 9P-over-IL, and the Cyclone
// link — across impaired media (loss, duplication, reordering,
// corruption, jitter, bursty loss, partitions; see medium.Impairment)
// and checks the promises the paper's protocols make:
//
//   - exactly-once, in-order delivery: every byte stream arrives
//     byte-identical end to end (checksummed both sides);
//   - corruption never reaches the application: damaged frames and
//     cells die at a CRC or checksum, surfacing as loss the protocol
//     recovers from;
//   - recovery is bounded: retransmission counts stay under a budget
//     proportional to the traffic;
//   - teardown is clean: conversations close without hanging, and the
//     package's leakcheck gate holds goroutines to zero.
//
// Every impairment decision is a pure function of (seed, wire index),
// so any failure replays exactly from its Scenario; Shrink then cuts a
// failing scenario down to a minimal seed+schedule report.
package torture

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/medium"
	"repro/internal/vclock"
)

// Protocols the harness can drive.
const (
	ProtoIL      = "il"
	ProtoTCP     = "tcp"
	ProtoURP     = "urp"
	Proto9P      = "9p"
	ProtoCyclone = "cyclone"
)

// Protos lists every protocol the harness drives, in matrix order.
var Protos = []string{ProtoIL, ProtoTCP, ProtoURP, Proto9P, ProtoCyclone}

// Scenario describes one torture conversation: which protocol, how
// much traffic in each direction, and what the wire does to it. The
// zero values of the traffic knobs get defaults from Run.
type Scenario struct {
	Proto  string // il, tcp, urp, 9p, cyclone
	Seed   int64
	Msgs   int // messages dialer → acceptor (9p: write blocks)
	Back   int // messages acceptor → dialer (9p: ignored, read-back covers it)
	MaxMsg int // largest payload body in bytes

	Loss      float64
	Impair    medium.Impairment
	Latency   time.Duration
	Bandwidth int64 // bytes/second; 0 = unlimited

	// MaxRetrans bounds total retransmissions; 0 derives a budget
	// from the traffic volume.
	MaxRetrans int64
	// Timeout is the watchdog for the whole conversation, in
	// simulated time; 0 = 20s.
	Timeout time.Duration

	// Mods lists line-discipline specs (§2.4.1) pushed bottom-up on
	// both ends of the conversation before traffic starts — e.g.
	// {"compress", "batch 1024 2ms"}. The modules ride above the
	// protocol engine, timed by the scenario's clock; batch and
	// compress restore message boundaries themselves, so even a TCP
	// conversation keeps the message-per-read contract with Mods set.
	Mods []string
}

func (s Scenario) String() string {
	mode := ""
	if len(s.Mods) > 0 {
		mode = " mods=[" + strings.Join(s.Mods, ", ") + "]"
	}
	return fmt.Sprintf("proto=%s seed=%d msgs=%d back=%d maxmsg=%d loss=%g impair={%s} lat=%v bw=%d%s",
		s.Proto, s.Seed, s.Msgs, s.Back, s.MaxMsg, s.Loss, s.Impair, s.Latency, s.Bandwidth, mode)
}

// withDefaults fills the zero traffic knobs.
func (s Scenario) withDefaults() Scenario {
	if s.Msgs == 0 {
		s.Msgs = 50
	}
	if s.MaxMsg == 0 {
		s.MaxMsg = 1024
	}
	if s.Timeout == 0 {
		s.Timeout = 20 * time.Second
	}
	if s.MaxRetrans == 0 {
		// Generous but finite: a protocol that needs two orders of
		// magnitude more retransmissions than messages is thrashing,
		// not recovering.
		s.MaxRetrans = 64*int64(s.Msgs+s.Back) + 256
	}
	return s
}

// Violation is one broken invariant.
type Violation struct {
	Invariant string // checksum, order, duplicate, corrupt, timeout, ...
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// DirStats summarizes one direction of the conversation.
type DirStats struct {
	Msgs      int    // messages delivered intact
	SentBytes int64  // bytes written
	RecvBytes int64  // bytes delivered
	SentSum   string // sha256 of the written stream
	RecvSum   string // sha256 of the delivered stream
}

// Report is the outcome of one torture run.
type Report struct {
	Scenario    Scenario
	Forward     DirStats // dialer → acceptor
	Backward    DirStats // acceptor → dialer
	Retransmits int64
	Wire        medium.Counts     // impairment counters, when the medium exposes them
	Schedule    []medium.Decision // recorded decisions (Impair.Record on an ether-based proto)
	Elapsed     time.Duration

	// DialMods and AccMods are the final module-counter snapshots of
	// each end's line-discipline stack, nil unless Scenario.Mods ran.
	// They are taken after the conversation fully drains, so the
	// conformance suite can balance them against the ground truth.
	DialMods, AccMods map[string]int64

	mu         sync.Mutex
	Violations []Violation
}

// violate records a broken invariant (capped so a corrupt stream does
// not produce an unbounded report).
const maxViolations = 32

func (r *Report) violate(invariant, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
	}
}

func (r *Report) overloaded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Violations) >= maxViolations
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Violations) > 0
}

// String renders the report in the transcript style of the rest of
// the simulator.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "torture %s: ", r.Scenario.Proto)
	if r.Failed() {
		fmt.Fprintf(&b, "FAIL (%d violations)\n", len(r.Violations))
	} else {
		b.WriteString("ok\n")
	}
	fmt.Fprintf(&b, "  scenario: %s\n", r.Scenario)
	fmt.Fprintf(&b, "  forward:  %d msgs %d bytes sum %.12s\n", r.Forward.Msgs, r.Forward.RecvBytes, r.Forward.RecvSum)
	fmt.Fprintf(&b, "  backward: %d msgs %d bytes sum %.12s\n", r.Backward.Msgs, r.Backward.RecvBytes, r.Backward.RecvSum)
	fmt.Fprintf(&b, "  retransmits %d, wire %s, elapsed %v\n", r.Retransmits, r.Wire, r.Elapsed.Round(time.Millisecond))
	r.mu.Lock()
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation %s\n", v)
	}
	r.mu.Unlock()
	return b.String()
}

// Run executes one scenario and reports. It never panics on protocol
// misbehavior: everything the stack does wrong lands in Violations.
// The whole conversation — media, protocol engines, watchdog — runs
// inside one discrete-event clock: the wire's latency and pacing and
// the protocols' timers advance in simulated time, so an hour-long WAN
// scenario finishes in wall-clock milliseconds, same-seed runs are
// bit-identical, and Elapsed is simulated time.
func Run(s Scenario) *Report {
	s = s.withDefaults()
	rep := &Report{Scenario: s}
	v := vclock.NewVirtual()
	v.Run(func() { runScenario(v, s, rep) })
	checkInvariants(s, rep)
	return rep
}

func runScenario(ck vclock.Clock, s Scenario, rep *Report) {
	start := ck.Now()
	switch s.Proto {
	case ProtoIL:
		runIL(ck, s, rep)
	case ProtoTCP:
		runTCP(ck, s, rep)
	case ProtoURP:
		runURP(ck, s, rep)
	case Proto9P:
		run9P(ck, s, rep)
	case ProtoCyclone:
		runCyclone(ck, s, rep)
	default:
		rep.violate("scenario", "unknown proto %q", s.Proto)
	}
	rep.Elapsed = ck.Since(start)
}

// checkInvariants applies the run-independent checks: end-to-end
// checksums and the retransmission budget.
func checkInvariants(s Scenario, rep *Report) {
	if rep.Forward.SentSum != rep.Forward.RecvSum {
		rep.violate("checksum", "forward stream: sent %.12s recv %.12s", rep.Forward.SentSum, rep.Forward.RecvSum)
	}
	if rep.Backward.SentSum != rep.Backward.RecvSum {
		rep.violate("checksum", "backward stream: sent %.12s recv %.12s", rep.Backward.SentSum, rep.Backward.RecvSum)
	}
	if rep.Retransmits > s.MaxRetrans {
		rep.violate("retransmit-bound", "%d retransmits exceed budget %d", rep.Retransmits, s.MaxRetrans)
	}
}

// Deterministic payloads: message #seq in direction dir under a seed
// is a pure function, so the receiver regenerates the expected message
// and byte-compares — no shared state, no transmitted manifest, and a
// corrupt, duplicated, or reordered delivery is identified from the
// payload alone.
//
// Layout: magic[1] dir[1] seq[4] len[2] body... with the body bytes
// drawn from a SplitMix64 chain over (seed, dir, seq).
const (
	msgHdrLen = 8
	msgMagic  = 0x9b
)

// mix64 is the SplitMix64 finalizer (same generator the impairment
// model uses, independently keyed).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// message builds payload #seq for direction dir.
func message(seed int64, dir byte, seq, maxMsg int) []byte {
	if maxMsg < 1 {
		maxMsg = 1
	}
	base := mix64(uint64(seed)) ^ mix64(uint64(seq)<<8|uint64(dir)|0xd1e)
	n := 1 + int(mix64(base)%uint64(maxMsg))
	msg := make([]byte, msgHdrLen+n)
	msg[0] = msgMagic
	msg[1] = dir
	binary.BigEndian.PutUint32(msg[2:], uint32(seq))
	binary.BigEndian.PutUint16(msg[6:], uint16(len(msg)))
	var w uint64
	for i := msgHdrLen; i < len(msg); i++ {
		if (i-msgHdrLen)%8 == 0 {
			w = mix64(base + uint64(i))
		}
		msg[i] = byte(w)
		w >>= 8
	}
	return msg
}

// streamSum accumulates a sha256 over a byte stream.
type streamSum struct {
	h interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
	n int64
}

func newStreamSum() *streamSum { return &streamSum{h: sha256.New()} }

func (s *streamSum) add(p []byte) {
	s.h.Write(p)
	s.n += int64(len(p))
}

func (s *streamSum) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }
