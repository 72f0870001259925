package storm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mnt"
	"repro/internal/ns"
	"repro/internal/vclock"
)

// The relay of §6.1 with every mount shared: a file server exports
// sixteen 64 KiB files; a gateway imports them with the file-tree
// driver and re-exports that one mount; four terminals import the
// gateway, and sixteen processes on each read a file three times
// through their terminal's one mount while one of them binds into the
// name space the others are resolving in. Every lock on that path is
// held across a park with a second process wanting it — the 9P client's
// write lock on a paced circuit, the gateway server's per-fid lock
// across a Walk that is itself an RPC, the mount driver's handle lock
// across its window, the name space across a resolve — and each of
// them, as a sync.Mutex, stopped the virtual clock here.
const (
	relayFiles     = 16
	relayTerminals = 4
	relayProcs     = 16
	relayRounds    = 3
)

func relayFile(i int) string { return fmt.Sprintf("f%02d", i) }

// runRelay returns the run's report: everything in it is simulated, so
// two same-seed runs must print the same bytes.
func runRelay(seed int64) (string, error) {
	payload := make([][]byte, relayFiles)
	rng := rand.New(rand.NewSource(seed))
	for i := range payload {
		payload[i] = make([]byte, sharedSize)
		rng.Read(payload[i])
	}
	serve := func(reg *core.Machine) error {
		if err := reg.Root.MkdirAll("lib", 0775); err != nil {
			return err
		}
		for i, p := range payload {
			if err := reg.Root.WriteFile("lib/"+relayFile(i), p, 0444); err != nil {
				return err
			}
		}
		_, err := reg.ServeExportfs("dk!*!exportfs")
		return err
	}
	var report string
	cfg := Config{Machines: 1 + relayTerminals, Seed: seed}
	_, err := runOn(cfg, serve, func(w *world) error {
		gw, terminals := w.machines[0], w.machines[1:]
		up, err := gw.ImportConfig("dk!nj/astro/registry!exportfs", "/lib", "/n/fs", ns.MREPL, mnt.FileConfig())
		if err != nil {
			return fmt.Errorf("gateway import: %w", err)
		}
		if _, err := gw.ServeExportfs("dk!*!exportfs"); err != nil {
			return err
		}
		for _, m := range terminals {
			if _, err := m.ImportConfig("dk!"+dkName(0)+"!exportfs", "/n/fs", "/n/gw", ns.MREPL, mnt.FileConfig()); err != nil {
				return fmt.Errorf("%s import: %w", m.Name, err)
			}
		}
		start := w.ck.Now()
		var reads, nbytes, binds, bad atomic.Int64
		wg := vclock.NewWaitGroup(w.ck)
		for _, m := range terminals {
			for p := range relayProcs {
				wg.Add(1)
				w.ck.Go(func() {
					defer wg.Done()
					for round := range relayRounds {
						b, err := m.NS.ReadFile("/n/gw/" + relayFile(p))
						if err != nil || !bytes.Equal(b, payload[p]) {
							bad.Add(1)
							continue
						}
						reads.Add(1)
						nbytes.Add(int64(len(b)))
						if p == 0 {
							// The walk to the bound name is an RPC; the
							// other fifteen are resolving meanwhile.
							if err := m.NS.Bind("/n/gw/"+relayFile(round), fmt.Sprintf("/n/bound%d", round), ns.MREPL); err != nil {
								bad.Add(1)
								continue
							}
							binds.Add(1)
						}
					}
				})
			}
		}
		wg.Wait()
		srv := gw.Exportfs().Ninep()
		report = fmt.Sprintf("relay: %d reads (%d bad), %d bytes, %d binds; gateway relayed %d rpcs (%d flushes, window %d) for %d served on %d conns; simulated %v",
			reads.Load(), bad.Load(), nbytes.Load(), binds.Load(),
			up.RPCs.Load(), up.Flushes.Load(), up.WindowHW.Load(),
			srv.RPCs.Load(), srv.Conns.Load(), w.ck.Since(start))
		if bad.Load() != 0 {
			return fmt.Errorf("%d reads or binds failed", bad.Load())
		}
		if want := int64(relayTerminals * relayProcs * relayRounds); reads.Load() != want {
			return fmt.Errorf("%d reads, want %d", reads.Load(), want)
		}
		// 12 MiB over the gateway's one 1 MB/s circuit is twelve
		// seconds of wire; a run that takes minutes has serialized
		// something that should overlap.
		if el := w.ck.Since(start); el > time.Minute {
			return fmt.Errorf("the relay took %v of simulated time", el)
		}
		return nil
	})
	return report, err
}

func TestRelayThroughSharedMounts(t *testing.T) {
	r1, err := runRelay(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, r1)
	}
	t.Log(r1)
	r2, err := runRelay(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, r2)
	}
	if r1 != r2 {
		t.Errorf("same seed diverged:\nrun 1: %s\nrun 2: %s", r1, r2)
	}
}
