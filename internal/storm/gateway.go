package storm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mnt"
	"repro/internal/ns"
)

// GatewayResult is what the gateway storm did: the import-side tallies
// plus the exporter's shared-cache counters, which are the point — a
// thousand tenants reading one file should cost the backing tree one
// fill per fragment.
type GatewayResult struct {
	Machines    int
	Reads       int64 // imports that fetched and verified the shared file
	Errors      int64 // dials refused or contents wrong
	Bytes       int64 // payload bytes fetched through the gateway
	Conns       int64 // connections the gateway served over its life
	CacheHits   int64
	CacheMisses int64
	Simulated   time.Duration
	Wall        time.Duration
}

// HitRate is the shared cache's hit fraction over the whole storm.
func (r *GatewayResult) HitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

func (r *GatewayResult) String() string {
	return fmt.Sprintf("gateway storm: %d machines, %d reads (%d errors), %d bytes, %d conns, cache %d/%d hits (%.1f%%), simulated %v in %v wall",
		r.Machines, r.Reads, r.Errors, r.Bytes, r.Conns,
		r.CacheHits, r.CacheHits+r.CacheMisses, 100*r.HitRate(),
		r.Simulated.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
}

// sharedSize is the shared file every tenant fetches: 64 KiB, eight
// protocol fragments.
const sharedSize = 64 << 10

// RunGateway boots the world and drives the gateway storm: the registry
// machine holds the shared file and announces exportfs, and every other
// machine repeatedly imports its /lib through the multi-tenant server.
// One tenant's life: stagger in, then import, read the shared file with
// the windowed file driver, verify it, unmount, and pause. On the
// virtual clock the run is deterministic per seed, cache counters
// included.
func RunGateway(cfg Config) (*GatewayResult, error) {
	cfg = cfg.withDefaults()
	res := &GatewayResult{Machines: cfg.Machines, Simulated: cfg.Sim}
	payload := make([]byte, sharedSize)
	rand.New(rand.NewSource(cfg.Seed)).Read(payload)
	serve := func(reg *core.Machine) error {
		if err := reg.Root.MkdirAll("lib", 0775); err != nil {
			return err
		}
		if err := reg.Root.WriteFile("lib/shared", payload, 0444); err != nil {
			return err
		}
		_, err := reg.ServeExportfs("dk!*!exportfs")
		return err
	}
	var reads, errors, nbytes atomic.Int64
	var err error
	res.Wall, err = runOn(cfg, serve, func(w *world) error {
		w.fanOut(1, func(m *core.Machine, rng *rand.Rand) {
			start := w.ck.Now()
			w.ck.Sleep(time.Duration(rng.Int63n(int64(w.interval))))
			for w.ck.Since(start) < cfg.Sim {
				cl, err := m.ImportConfig("dk!nj/astro/registry!exportfs", "/lib", "/n/gw",
					ns.MREPL, mnt.FileConfig())
				if err != nil {
					errors.Add(1)
					w.ck.Sleep(w.interval / 4)
					continue
				}
				b, err := m.NS.ReadFile("/n/gw/shared")
				// Close explicitly: nothing else ends an import, and a
				// storm of leaked imports would pin the gateway's
				// connection table.
				cl.Close()
				if err == nil && bytes.Equal(b, payload) {
					reads.Add(1)
					nbytes.Add(int64(len(b)))
				} else {
					errors.Add(1)
				}
				w.pause(rng, w.interval)
			}
		})
		// Close the books: the exporter's connection and cache tallies.
		srv := w.reg.Exportfs()
		res.Conns = srv.Ninep().Conns.Load()
		res.CacheHits = srv.Cache().Hits.Load()
		res.CacheMisses = srv.Cache().Misses.Load()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Reads, res.Errors, res.Bytes = reads.Load(), errors.Load(), nbytes.Load()
	return res, nil
}
