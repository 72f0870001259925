package il

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/ether"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// The three design choices §3 argues in prose, each measured with the
// choice made and with it unmade (EXPERIMENTS "§3 ablation"). Every
// figure is simulated time or a count taken on vclock.Virtual: the same
// on every run, so the tests assert the paper's inequalities outright
// and log the tables EXPERIMENTS records.

// ablation is what one arm of an experiment measured.
type ablation struct {
	elapsed                time.Duration // simulated, first write to last read
	sent, retrans, queries int64         // packets, both engines
	recovery               int64         // IL bytes both engines sent that a perfect wire would not have carried
}

// measure runs work over a conversation on a fresh pair of machines
// tuned by tune, and reports what it cost. reqLen and repLen are the
// sizes of the messages the dialer and the acceptor write: with them a
// count of resent packets is a count of bytes.
func measure(t *testing.T, prof ether.Profile, tune func(*Proto), reqLen, repLen int, work func(v *vclock.Virtual, dc, sc xport.Conn) error) (a ablation) {
	t.Helper()
	onTunedVirtualPair(t, prof, tune, func(v *vclock.Virtual, p1, p2 *Proto, dc, sc xport.Conn) {
		start := v.Now()
		if err := work(v, dc, sc); err != nil {
			t.Error(err)
			return
		}
		a.elapsed = v.Now().Sub(start)
		a.sent = p1.MsgsSent.Load() + p2.MsgsSent.Load()
		a.retrans = p1.Retransmits.Load() + p2.Retransmits.Load()
		a.queries = p1.QueriesSent.Load() + p2.QueriesSent.Load()
		// Every query received was answered with a state message.
		states := p1.QueriesRcvd.Load() + p2.QueriesRcvd.Load()
		a.recovery = p1.Retransmits.Load()*int64(HdrLen+reqLen) + p2.Retransmits.Load()*int64(HdrLen+repLen) +
			(a.queries+states)*HdrLen
	})
	return a
}

// echo is the request/reply workload: ops times, the dialer writes
// reqLen bytes and the acceptor answers with repLen.
func echo(ops, reqLen, repLen int) func(v *vclock.Virtual, dc, sc xport.Conn) error {
	return func(v *vclock.Virtual, dc, sc xport.Conn) error {
		v.Go(func() {
			buf := make([]byte, 8192)
			for {
				if _, err := sc.Read(buf); err != nil {
					return
				}
				if _, err := sc.Write(buf[:repLen]); err != nil {
					return
				}
			}
		})
		req, rep := make([]byte, reqLen), make([]byte, repLen)
		for i := range ops {
			if _, err := dc.Write(req); err != nil {
				return fmt.Errorf("op %d: %v", i, err)
			}
			if _, err := io.ReadFull(dc, rep); err != nil {
				return fmt.Errorf("op %d: %v", i, err)
			}
		}
		return nil
	}
}

// stream is the one-way workload: the dialer writes msgs messages of
// size bytes as fast as its window lets it and the acceptor reads them.
func stream(msgs, size int) func(v *vclock.Virtual, dc, sc xport.Conn) error {
	return func(v *vclock.Virtual, dc, sc xport.Conn) error {
		v.Go(func() {
			msg := make([]byte, size)
			for range msgs {
				if _, err := dc.Write(msg); err != nil {
					return
				}
			}
		})
		buf := make([]byte, 8192)
		for i := range msgs {
			if n, err := sc.Read(buf); err != nil || n != size {
				return fmt.Errorf("message %d: read %d bytes, %v", i, n, err)
			}
		}
		return nil
	}
}

func (a ablation) perOp(ops int) time.Duration { return a.elapsed / time.Duration(ops) }

// TestAblationQueryVsBlind: "this allows the protocol to behave well in
// congested networks, where blind retransmission would cause further
// congestion" (§3). The office Ethernet at 0, 5 and 15 % loss, recovering
// by query and by resending everything unacknowledged, under two
// workloads: a 1 KiB request and a 1-byte reply per op, where the window
// never holds more than one message, and 1 KiB messages streamed one
// way, where it holds twenty.
func TestAblationQueryVsBlind(t *testing.T) {
	const ops, reqLen, repLen = 200, 1024, 1
	var tab strings.Builder
	fmt.Fprintf(&tab, "\n%-7s %-5s %-6s %8s %8s %8s %10s %10s\n", "", "loss", "arm", "packets", "resent", "queries", "recovery B", "ms/op")
	// from is the loss at which the arms part by more than a handful of
	// packets: one message in flight gives blind little to resend blindly.
	for _, wl := range []struct {
		name string
		from float64
		work func(v *vclock.Virtual, dc, sc xport.Conn) error
	}{{"echo", 0.15, echo(ops, reqLen, repLen)}, {"stream", 0.05, stream(ops, reqLen)}} {
		for _, loss := range []float64{0, 0.05, 0.15} {
			prof := ether.Profile{Bandwidth: 10_000_000 / 8, Latency: 200 * time.Microsecond, Loss: loss, Seed: 42}
			query := measure(t, prof, func(*Proto) {}, reqLen, repLen, wl.work)
			blind := measure(t, prof, func(p *Proto) { p.blind = true }, reqLen, repLen, wl.work)
			if t.Failed() {
				return
			}
			for _, r := range []struct {
				arm string
				a   ablation
			}{{"query", query}, {"blind", blind}} {
				fmt.Fprintf(&tab, "%-7s %-5s %-6s %8d %8d %8d %10d %10.3f\n", wl.name, fmt.Sprintf("%g%%", loss*100), r.arm,
					r.a.sent, r.a.retrans, r.a.queries, r.a.recovery, float64(r.a.perOp(ops))/1e6)
			}
			switch {
			case loss == 0 && (query.recovery != 0 || blind.recovery != 0):
				t.Errorf("%s, clean wire: %d and %d bytes of recovery traffic, want none", wl.name, query.recovery, blind.recovery)
			case loss > 0 && blind.queries != 0:
				t.Errorf("%s, %g%% loss: the blind arm sent %d queries", wl.name, loss*100, blind.queries)
			case loss >= wl.from && query.recovery >= blind.recovery:
				t.Errorf("%s, %g%% loss: query recovery cost %d bytes, blind %d: asking first saved no traffic",
					wl.name, loss*100, query.recovery, blind.recovery)
			}
		}
	}
	t.Log(tab.String())
}

// TestAblationAdaptiveVsFixedTimeout: the round-trip timer lets IL "perform
// well on both the Internet and on local Ethernets" (§3). A 64-byte echo
// at 5 % loss on a 200 µs LAN and a 20 ms WAN, with the adaptive timeout
// and with one fixed timeout tuned for each medium: each fixed value
// must lose on the medium it was not tuned for — the slow one on time,
// the fast one on recovery traffic.
func TestAblationAdaptiveVsFixedTimeout(t *testing.T) {
	const ops, size = 200, 64
	timers := []struct {
		name string
		rto  time.Duration
	}{{"adaptive", 0}, {"fixed 15ms", 15 * time.Millisecond}, {"fixed 500ms", 500 * time.Millisecond}}
	var tab strings.Builder
	fmt.Fprintf(&tab, "\n%-4s %-12s %10s %12s\n", "", "timeout", "ms/op", "recovery/op")
	res := make(map[string]ablation)
	for _, m := range []struct {
		name    string
		latency time.Duration
	}{{"LAN", 200 * time.Microsecond}, {"WAN", 20 * time.Millisecond}} {
		prof := ether.Profile{Bandwidth: 1 << 26, Latency: m.latency, Loss: 0.05, Seed: 7}
		for _, tm := range timers {
			a := measure(t, prof, func(p *Proto) { p.fixedRTO = tm.rto }, size, size, echo(ops, size, size))
			if t.Failed() {
				return
			}
			res[m.name+" "+tm.name] = a
			fmt.Fprintf(&tab, "%-4s %-12s %10.3f %12.3f\n", m.name, tm.name,
				float64(a.perOp(ops))/1e6, float64(a.retrans+a.queries)/ops)
		}
	}
	t.Log(tab.String())
	if slow, ad := res["LAN fixed 500ms"], res["LAN adaptive"]; slow.elapsed <= ad.elapsed {
		t.Errorf("LAN: fixed 500 ms took %v, adaptive %v: a WAN-sized timer cost no time", slow.elapsed, ad.elapsed)
	}
	if fast, ad := res["WAN fixed 15ms"], res["WAN adaptive"]; fast.retrans+fast.queries <= ad.retrans+ad.queries {
		t.Errorf("WAN: fixed 15 ms sent %d recovery packets, adaptive %d: a LAN-sized timer cost no traffic",
			fast.retrans+fast.queries, ad.retrans+ad.queries)
	}
}

// TestAblationWindow: "a small outstanding message window prevents too
// many incoming messages from being buffered" (§3) — and it must still
// cover the path. 1 KiB messages one way over a 2 ms, 64 MB/s medium,
// whose bandwidth-delay product (256 KiB a round trip) is far above any
// of the windows: throughput is the window over the round trip.
func TestAblationWindow(t *testing.T) {
	const msgs, size = 400, 1024
	prof := ether.Profile{Bandwidth: 1 << 26, Latency: 2 * time.Millisecond}
	var tab strings.Builder
	fmt.Fprintf(&tab, "\n%-7s %10s\n", "window", "MB/s")
	var last float64
	for _, w := range []uint32{1, 4, Window} {
		a := measure(t, prof, func(p *Proto) { p.window = w }, size, 0, stream(msgs, size))
		if t.Failed() {
			return
		}
		mbps := float64(msgs*size) / a.elapsed.Seconds() / 1e6
		fmt.Fprintf(&tab, "%-7d %10.3f\n", w, mbps)
		if a.retrans != 0 {
			t.Errorf("window %d: %d retransmissions on a clean wire", w, a.retrans)
		}
		if mbps <= last {
			t.Errorf("window %d: %.3f MB/s, no faster than the smaller window's %.3f", w, mbps, last)
		}
		last = mbps
	}
	t.Log(tab.String())
}
