package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dialer"
	"repro/internal/ns"
)

// wanBursts streams rounds bursts of msgs messages of sz bytes from
// helix to a sink on bootes over IL on the WAN Ethernet (10 ms round
// trip), with mods pushed on both ends the way a service would: the
// listener arms each accepted conversation, the dialer writes the same
// specs to its ctl file. The sink acknowledges each burst, so the time
// covers the full drain, the batch module's tail flush included. It
// reports the simulated time the bursts took.
func wanBursts(t *testing.T, rounds, msgs, sz int, compressible bool, mods ...string) (elapsed time.Duration) {
	t.Helper()
	onPaperWorld(t, WANProfiles(), func(w *World) error {
		stop, err := w.Machine("bootes").Serve("il!*!17090", func(_ *ns.Namespace, conn *dialer.Conn) {
			buf := make([]byte, 64*1024)
			for {
				n, err := conn.Read(buf)
				if err != nil {
					return
				}
				if string(buf[:n]) == "done" {
					if _, err := conn.Write([]byte("ok")); err != nil {
						return
					}
				}
			}
		}, mods...)
		if err != nil {
			return err
		}
		defer stop()
		conn, err := dialer.Dial(w.Machine("helix").NS, "il!bootes!17090")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.Push(mods...); err != nil {
			return err
		}
		payload := make([]byte, sz)
		if compressible {
			// Text-shaped: the mix of repetition and drift that RPC and
			// log traffic has.
			n := copy(payload, "wan goodput message: status ok, queue drained, next poll soon; ")
			for i := n; i < sz; i++ {
				payload[i] = byte('a' + i%17)
			}
		} else {
			r := uint64(0x9e3779b97f4a7c15)
			for i := range payload {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				payload[i] = byte(r)
			}
		}
		ack := make([]byte, 16)
		ck := w.Clock()
		start := ck.Now()
		for range rounds {
			for range msgs {
				if _, err := conn.Write(payload); err != nil {
					return err
				}
			}
			if _, err := conn.Write([]byte("done")); err != nil {
				return err
			}
			if n, err := conn.Read(ack); err != nil || string(ack[:n]) != "ok" {
				return fmt.Errorf("ack %q, %v", ack[:n], err)
			}
		}
		elapsed = ck.Since(start)
		return nil
	})
	return elapsed
}

// TestAblationLineDisciplinesOnWAN is §2.4.1's case for pushing modules
// on a conversation, measured (EXPERIMENTS "§2.4.1: line disciplines on
// the WAN"). Small messages are where the disciplines earn their keep:
// a 64-byte write costs a full IL/IP/Ethernet header and a slot in IL's
// window undressed; batched, a window's worth shares one frame, and
// compressed beneath that the frame shrinks. Bulk incompressible writes
// ride the batch fastpath and compress's stored-frame exit, so the
// modules may cost them nothing per byte: only the 4-byte end-of-burst
// marker waits out batch's flush delay, once a burst.
func TestAblationLineDisciplinesOnWAN(t *testing.T) {
	const rounds, delay = 4, 2 * time.Millisecond
	stacks := []struct {
		name string
		mods []string
	}{
		{"undressed", nil},
		{"batch 2048 2ms", []string{"batch 2048 2ms"}},
		{"compress + batch 2048 2ms", []string{"compress", "batch 2048 2ms"}},
	}
	var tab strings.Builder
	fmt.Fprintf(&tab, "\n%-28s %-26s %10s %10s %8s\n", "workload", "modules", "ms/burst", "MB/s", "vs bare")
	run := func(workload string, msgs, sz int, compressible bool) (el [3]time.Duration) {
		for i, s := range stacks {
			el[i] = wanBursts(t, rounds, msgs, sz, compressible, s.mods...)
			if t.Failed() {
				return el
			}
			fmt.Fprintf(&tab, "%-28s %-26s %10.3f %10.4f %7.2fx\n", workload, s.name, float64(el[i]/rounds)/1e6,
				float64(rounds*msgs*sz)/el[i].Seconds()/1e6, float64(el[0])/float64(el[i]))
		}
		return el
	}
	small := run("512 x 64 B, text", 512, 64, true)
	bulk := run("16 x 4 KiB, incompressible", 16, 4096, false)
	if t.Failed() {
		return
	}
	t.Log(tab.String())
	if small[1] >= small[0] || small[2] >= small[1] {
		t.Errorf("small messages: a burst takes %v undressed, %v batched, %v compressed and batched: each module must save time",
			small[0]/rounds, small[1]/rounds, small[2]/rounds)
	}
	for i := 1; i < 3; i++ {
		if tax := (bulk[i] - bulk[0]) / rounds; tax > delay+delay/100 {
			t.Errorf("bulk writes under %s: a burst takes %v longer than undressed, more than the one flush delay (%v) its marker waits",
				stacks[i].name, tax, delay)
		}
	}
}
