package xport_test

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/xport"
)

// The estimator replaced two inline copies, one in il.go and one in
// tcp.go. This series was run through those copies before they were
// deleted: every srtt, mdev and timeout below is what IL (10 ms floor,
// 2 s ceiling, 100 ms before any sample) and TCP (20 ms, 2 s, 200 ms)
// computed. It covers the first sample, a negative difference that
// does not divide evenly (Go truncates toward zero), a timeout between
// the two floors, and both clamps.
func TestRTTPinsILAndTCPSequences(t *testing.T) {
	const (
		ilMin, ilInit   = 10 * time.Millisecond, 100 * time.Millisecond
		tcpMin, tcpInit = 20 * time.Millisecond, 200 * time.Millisecond
		ceiling         = 2 * time.Second
	)
	var r xport.RTT
	if il, tcp := r.RTO(ilMin, ceiling, ilInit), r.RTO(tcpMin, ceiling, tcpInit); il != ilInit || tcp != tcpInit {
		t.Fatalf("before any sample: RTO %v / %v, want %v / %v", il, tcp, ilInit, tcpInit)
	}
	for i, w := range []struct{ sample, srtt, mdev, il, tcp time.Duration }{
		{2000000, 2000000, 1000000, 10000000, 20000000}, // first sample; both floors
		{3000000, 2125000, 1000000, 10000000, 20000000},
		{9000000, 2984375, 2468750, 12859375, 20000000}, // between the floors
		{9000000, 3736328, 3355468, 17158200, 20000000},
		{700001, 3356788, 3275683, 16459520, 20000000}, // -3036327/8 truncates to -379540
		{60000000, 10437189, 16617565, 76907449, 76907449},
		{3000000000, 384132540, 759853876, 2000000000, 2000000000}, // ceiling
		{3000000000, 711115972, 1223857272, 2000000000, 2000000000},
		{12000000, 623726476, 1092671947, 2000000000, 2000000000},
	} {
		r.Sample(w.sample)
		if r.SRTT != w.srtt || r.Mdev != w.mdev {
			t.Fatalf("sample %d (%v): srtt %d mdev %d, want %d %d", i, w.sample, r.SRTT, r.Mdev, w.srtt, w.mdev)
		}
		if got := r.RTO(ilMin, ceiling, ilInit); got != w.il {
			t.Errorf("sample %d: IL RTO %d, want %d", i, got, w.il)
		}
		if got := r.RTO(tcpMin, ceiling, tcpInit); got != w.tcp {
			t.Errorf("sample %d: TCP RTO %d, want %d", i, got, w.tcp)
		}
	}
}

// One transmission is timed at a time, an acknowledgement short of it
// does not end the sample, and a retransmission voids it (Karn).
func TestRTTTimingWindow(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		var hist obs.Hist
		var r xport.RTT
		r.Init(v, &hist)

		r.Start(5)
		v.Sleep(10 * time.Millisecond)
		r.Start(9) // ignored: 5 is still being timed
		v.Sleep(20 * time.Millisecond)
		r.Ack(4)
		if r.SRTT != 0 {
			t.Errorf("ack short of the timed sequence sampled: srtt %v", r.SRTT)
		}
		r.Ack(7)
		if r.SRTT != 30*time.Millisecond || r.Mdev != 15*time.Millisecond {
			t.Errorf("srtt %v mdev %v, want 30ms 15ms", r.SRTT, r.Mdev)
		}
		r.Ack(9) // nothing in flight
		if s := hist.SnapshotHist(); s.Count != 1 || s.SumNs != int64(30*time.Millisecond) {
			t.Errorf("histogram has %d samples summing %dns, want 1 of 30ms", s.Count, s.SumNs)
		}

		r.Start(12)
		v.Sleep(time.Second)
		r.Cancel()
		r.Ack(12)
		if r.SRTT != 30*time.Millisecond || hist.SnapshotHist().Count != 1 {
			t.Errorf("cancelled sample was taken: srtt %v", r.SRTT)
		}
	})
}
