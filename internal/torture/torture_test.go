package torture

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/medium"
	"repro/internal/streams"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// nasty is the full fault cocktail at rates the protocols are
// expected to survive: every class of impairment is on, including two
// scheduled partitions that heal. Simulated seconds of WAN recovery
// cost wall-clock milliseconds, and the checks below pin the simulated
// duration too (a protocol that needs more virtual time than the
// budget is thrashing, even if the wall-clock bill is invisible).
func nasty(seed int64) Scenario {
	return Scenario{
		Seed:   seed,
		Msgs:   60,
		Back:   30,
		MaxMsg: 700,
		Loss:   0.02,
		Impair: medium.Impairment{
			Duplicate:    0.03,
			Reorder:      0.05,
			ReorderDepth: 3,
			Corrupt:      0.05,
			CorruptBits:  2,
			BurstP:       0.004,
			BurstR:       0.4,
			Partitions:   []medium.Window{{From: 120, To: 140}, {From: 300, To: 315}},
		},
		Timeout: 30 * time.Second,
	}
}

func checkSurvives(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Failed() {
		t.Fatalf("protocol did not survive impairment:\n%s", rep)
	}
	if rep.Forward.RecvSum != rep.Forward.SentSum || rep.Forward.SentBytes == 0 {
		t.Fatalf("forward stream not byte-identical:\n%s", rep)
	}
}

// checkVirtualBudget pins the simulated duration of a run.
func checkVirtualBudget(t *testing.T, rep *Report, budget time.Duration) {
	t.Helper()
	if rep.Elapsed > budget {
		t.Fatalf("conversation took %v of simulated time, budget %v:\n%s", rep.Elapsed, budget, rep)
	}
}

func TestILSurvivesImpairment(t *testing.T) {
	s := nasty(42)
	s.Proto = ProtoIL
	rep := Run(s)
	checkSurvives(t, rep)
	checkVirtualBudget(t, rep, 10*time.Second)
	if rep.Wire.Dropped == 0 || rep.Wire.Corrupted == 0 || rep.Wire.Duplicated == 0 {
		t.Fatalf("impairment never fired: wire %s", rep.Wire)
	}
	if rep.Retransmits == 0 {
		t.Fatalf("IL recovered %d drops without retransmitting?\n%s", rep.Wire.Dropped, rep)
	}
}

func TestTCPSurvivesImpairment(t *testing.T) {
	s := nasty(43)
	s.Proto = ProtoTCP
	rep := Run(s)
	checkSurvives(t, rep)
	checkVirtualBudget(t, rep, 10*time.Second)
	if rep.Backward.RecvSum != rep.Backward.SentSum {
		t.Fatalf("backward stream not byte-identical:\n%s", rep)
	}
}

func TestURPSurvivesImpairment(t *testing.T) {
	s := nasty(44)
	s.Proto = ProtoURP
	// URP's mod-8 window tolerates shallow reordering only, and its
	// circuits have no partition-length death timer slack: keep the
	// cocktail inside the Datakit contract (cells arrive ordered or
	// die; see datakit's cell FCS).
	s.Impair.Reorder = 0
	s.Impair.ReorderDepth = 0
	s.Impair.Duplicate = 0
	s.Impair.Partitions = []medium.Window{{From: 80, To: 95}}
	rep := Run(s)
	checkSurvives(t, rep)
	checkVirtualBudget(t, rep, 15*time.Second)
	if rep.Retransmits == 0 {
		t.Fatalf("URP survived loss+corruption without retransmitting?\n%s", rep)
	}
}

func Test9PSurvivesImpairment(t *testing.T) {
	s := nasty(45)
	s.Proto = Proto9P
	s.Msgs = 40
	rep := Run(s)
	checkSurvives(t, rep)
	checkVirtualBudget(t, rep, 20*time.Second)
	if rep.Forward.SentBytes != rep.Forward.RecvBytes {
		t.Fatalf("9p read back %d bytes of %d:\n%s", rep.Forward.RecvBytes, rep.Forward.SentBytes, rep)
	}
}

// TestPoolingArmedDuringTorture pins the block-discipline claim: the
// impairment runs above exercise the pooled, ownership-passing data
// path, not a copy-everything fallback. One full cocktail run must
// leave sha256-identical streams while the global block pool counters
// show both allocation and recycling traffic.
func TestPoolingArmedDuringTorture(t *testing.T) {
	before := block.Snapshot()
	s := nasty(47)
	s.Proto = ProtoIL
	rep := Run(s)
	checkSurvives(t, rep)
	after := block.Snapshot()
	if after.Allocs == before.Allocs {
		t.Fatalf("block allocator untouched during torture run: %+v", after)
	}
	if after.PoolHits == before.PoolHits {
		t.Fatalf("no pool recycling during torture run (every block fresh):\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestCycloneSurvivesJitter(t *testing.T) {
	s := Scenario{
		Proto:  ProtoCyclone,
		Seed:   46,
		Msgs:   80,
		Back:   40,
		MaxMsg: 8192,
		Impair: medium.Impairment{Jitter: 200 * time.Microsecond},
	}
	rep := Run(s)
	checkSurvives(t, rep)
	checkVirtualBudget(t, rep, 5*time.Second)
	if rep.Backward.RecvSum != rep.Backward.SentSum {
		t.Fatalf("backward stream not byte-identical:\n%s", rep)
	}
}

// TestTortureReplaysFromSeed is the acceptance check: the same seed
// reproduces the identical packet schedule. The wire's decision at
// index i is a pure function of (seed, i), and on the virtual clock
// the goroutine interleaving — hence which frame occupies which wire
// index — is deterministic too, so the two runs must agree on the
// WHOLE schedule, total count and flipped bits included, and deliver
// byte-identical streams.
func TestTortureReplaysFromSeed(t *testing.T) {
	s := nasty(47)
	s.Proto = ProtoIL
	s.Impair.Record = true
	r1, r2 := Run(s), Run(s)
	checkSurvives(t, r1)
	checkSurvives(t, r2)
	if r1.Forward.RecvSum != r2.Forward.RecvSum || r1.Backward.RecvSum != r2.Backward.RecvSum {
		t.Fatalf("same seed delivered different bytes:\n%s\n%s", r1, r2)
	}
	if len(r1.Schedule) == 0 || len(r2.Schedule) == 0 {
		t.Fatalf("no schedule recorded: %d vs %d decisions", len(r1.Schedule), len(r2.Schedule))
	}
	if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
		n := min(len(r1.Schedule), len(r2.Schedule))
		for i := range n {
			if !reflect.DeepEqual(r1.Schedule[i], r2.Schedule[i]) {
				t.Fatalf("schedules diverge at index %d: %s vs %s", i, r1.Schedule[i], r2.Schedule[i])
			}
		}
		t.Fatalf("schedules diverge in length: %d vs %d decisions", len(r1.Schedule), len(r2.Schedule))
	}
	sched1 := normalize(r1.Schedule)
	n := len(sched1)
	// A different seed must not replay the same schedule.
	s2 := s
	s2.Seed = 48
	r3 := Run(s2)
	sched3 := normalize(r3.Schedule)
	m := min(n, len(sched3))
	if reflect.DeepEqual(sched1[:m], sched3[:m]) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// normalize strips the frame-length-dependent bit positions from a
// schedule, leaving the pure (seed, index) decision.
func normalize(sched []medium.Decision) []medium.Decision {
	out := append([]medium.Decision(nil), sched...)
	for i := range out {
		out[i].Bits = nil
	}
	return out
}

// TestHarnessDetectsBrokenTransport feeds the checker a transport
// that corrupts silently — the harness must catch it, proving the
// invariants have teeth.
func TestHarnessDetectsBrokenTransport(t *testing.T) {
	s := Scenario{Proto: ProtoCyclone, Seed: 7, Msgs: 10, Back: 0, MaxMsg: 64, Timeout: 5 * time.Second}
	s = s.withDefaults()
	rep := &Report{Scenario: s}
	vclock.Simulate(func(ck vclock.Clock) error {
		// A loopback pair that flips a byte in message #3.
		a2b := vclock.NewMailbox[[]byte](ck, 0)
		dial := &hostileConn{tx: a2b, corrupt: 3}
		acc := &hostileConn{rx: a2b}
		drive(ck, s, rep, &conv{dial: dial, acc: acc, teardown: func() {}})
		return nil
	})
	checkInvariants(s, rep)
	if !rep.Failed() {
		t.Fatal("harness passed a transport that corrupts messages")
	}
	found := false
	rep.mu.Lock()
	for _, v := range rep.Violations {
		if v.Invariant == "corrupt" {
			found = true
		}
	}
	rep.mu.Unlock()
	if !found {
		t.Fatalf("expected a corrupt violation, got %v", rep.Violations)
	}
}

// hostileConn is a minimal in-memory xport.Conn for checker tests.
type hostileConn struct {
	tx      *vclock.Mailbox[[]byte]
	rx      *vclock.Mailbox[[]byte]
	corrupt int // flip a byte in this message index (counting sends)
	sent    int
}

func (h *hostileConn) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	if h.sent == h.corrupt && h.corrupt > 0 && len(cp) > msgHdrLen {
		cp[msgHdrLen] ^= 0xff
	}
	h.sent++
	if err := h.tx.Send(cp); err != nil {
		return 0, medium.ErrClosed
	}
	return len(p), nil
}

func (h *hostileConn) Read(p []byte) (int, error) {
	m, ok := h.rx.Recv()
	if !ok {
		return 0, medium.ErrClosed
	}
	return copy(p, m), nil
}

func (h *hostileConn) Connect(string) error  { return nil }
func (h *hostileConn) Announce(string) error { return nil }
func (h *hostileConn) Listen() (xport.Conn, error) {
	return nil, xport.ErrNotAnnounced
}
func (h *hostileConn) LocalAddr() string       { return "hostile" }
func (h *hostileConn) RemoteAddr() string      { return "hostile" }
func (h *hostileConn) Status() string          { return "Established" }
func (h *hostileConn) Stream() *streams.Stream { return nil }
func (h *hostileConn) Close() error {
	if h.tx != nil {
		h.tx.Close()
	}
	return nil
}

// TestShrinkMinimizes drives the minimizer with a synthetic failure
// model: the bug needs at least 13 messages and any nonzero loss; the
// rest of the cocktail is noise. Shrink must find exactly that.
func TestShrinkMinimizes(t *testing.T) {
	start := nasty(49)
	start.Proto = ProtoIL
	start.Msgs = 200
	start.Back = 77
	start.Loss = 0.3
	fails := func(s Scenario) bool { return s.Msgs >= 13 && s.Loss > 0 }
	got, runs := Shrink(start, fails, 500)
	if got.Msgs != 13 {
		t.Fatalf("minimal Msgs = %d, want 13 (%d runs)", got.Msgs, runs)
	}
	if got.Back != 0 || got.MaxMsg != 1 {
		t.Fatalf("noise not removed: back=%d maxmsg=%d", got.Back, got.MaxMsg)
	}
	if got.Loss == 0 {
		t.Fatal("shrink removed the knob the failure needs")
	}
	if got.Impair.Corrupt != 0 || got.Impair.Duplicate != 0 || len(got.Impair.Partitions) != 0 {
		t.Fatalf("impairment noise survived: %+v", got.Impair)
	}
	if !fails(got) {
		t.Fatal("shrunk scenario no longer fails")
	}
}

// TestShrinkRespectsBudget: the predicate is never called more than
// budget times.
func TestShrinkRespectsBudget(t *testing.T) {
	start := nasty(50)
	start.Msgs = 1 << 20
	calls := 0
	fails := func(s Scenario) bool { calls++; return true }
	_, runs := Shrink(start, fails, 25)
	if calls > 25 || runs != calls {
		t.Fatalf("budget violated: %d calls, %d reported", calls, runs)
	}
}
