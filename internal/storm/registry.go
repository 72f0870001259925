package storm

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/obs"
)

// regDialers is how many concurrent dial loops each machine runs.
const regDialers = 3

// RegistryResult is what the dial storm did, including the merged
// connection-server books across every machine.
type RegistryResult struct {
	Machines int
	Calls    int64 // registry calls that completed, echo verified
	Retries  int64 // dials the switch refused (backlog full), backed off
	Errors   int64 // conversations cut short or verified wrong
	Bytes    int64 // payload bytes echoed back

	// The merged /net/cs accounts. CSQueries balances against the
	// outcome counters: hits + waits + misses + errors.
	CSQueries   int64
	CSHits      int64
	CSNegHits   int64
	CSWaits     int64
	CSMisses    int64
	CSErrors    int64
	CSEvictions int64
	CSLat       obs.HistSnap

	Simulated time.Duration
	Wall      time.Duration
}

// CSp50 and CSp99 are the merged query-latency quantiles.
func (r *RegistryResult) CSp50() time.Duration { return r.CSLat.Quantile(0.50) }
func (r *RegistryResult) CSp99() time.Duration { return r.CSLat.Quantile(0.99) }

func (r *RegistryResult) String() string {
	return fmt.Sprintf("registry storm: %d machines, %d calls (%d retries, %d errors), %d bytes echoed; cs %d queries (%d hits, %d neg, %d waits, %d misses, %d errors, %d evictions) p50 %v p99 %v, simulated %v in %v wall",
		r.Machines, r.Calls, r.Retries, r.Errors, r.Bytes,
		r.CSQueries, r.CSHits, r.CSNegHits, r.CSWaits, r.CSMisses, r.CSErrors,
		r.CSEvictions, r.CSp50(), r.CSp99(),
		r.Simulated.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
}

// RunRegistry boots the world and drives the dial storm, the
// connection-server half of the exercise: where Run staggers machines
// over the first interval, here the whole building wakes at t=0 and
// dials by symbolic name, so every call walks /net/cs — several dialers
// per machine, which is what the sharded cache and the singleflight are
// for. One dial loop's life: call, verify the echo, pause, repeat; a few
// times per loop it asks for a machine that does not exist, exercising
// the negative cache the way fat-fingered boot scripts do. The run ends
// by merging every machine's /net/cs/stats into the result. On the
// virtual clock all of it — counters, histogram — is deterministic per
// seed.
func RunRegistry(cfg Config) (*RegistryResult, error) {
	cfg = cfg.withDefaults()
	res := &RegistryResult{Machines: cfg.Machines, Simulated: cfg.Sim}
	var calls, retries, errors, nbytes atomic.Int64
	var err error
	res.Wall, err = runOn(cfg, serveEcho, func(w *world) error {
		w.fanOut(regDialers, func(m *core.Machine, rng *rand.Rand) {
			start := w.ck.Now()
			// Refused dials (the switch's accept backlog is finite, and
			// the whole building dials at t=0) back off with jitter,
			// doubling up to the call interval — lockstep retries would
			// just re-collide.
			backoff := 4 * time.Millisecond
			for w.ck.Since(start) < cfg.Sim {
				if rng.Intn(16) == 0 {
					// A dead name: CS answers from the negative cache
					// after the first walk.
					if _, err := m.NdbQuery("net!no-such-machine!registry"); err == nil {
						errors.Add(1) // should not resolve
					}
				}
				conn, err := dialer.Dial(m.NS, "net!registry!registry")
				if err != nil {
					retries.Add(1)
					w.pause(rng, backoff)
					if backoff < w.interval {
						backoff *= 2
					}
					continue
				}
				backoff = 4 * time.Millisecond
				n, ok := echoCall(conn, rng)
				conn.Close()
				if ok {
					calls.Add(1)
					nbytes.Add(int64(n))
				} else {
					errors.Add(1)
				}
				w.pause(rng, w.interval)
			}
		})
		// Close the books: every machine's /net/cs/stats, merged. The
		// registry's own CS answered its announce, so it counts too.
		for _, m := range append([]*core.Machine{w.reg}, w.machines...) {
			b, err := m.NS.ReadFile("/net/cs/stats")
			if err != nil {
				return fmt.Errorf("storm: read %s cs stats: %w", m.Name, err)
			}
			text := string(b)
			st := obs.ParseStats(text)
			res.CSQueries += st["queries"]
			res.CSHits += st["cache-hits"]
			res.CSNegHits += st["neg-hits"]
			res.CSWaits += st["singleflight-waits"]
			res.CSMisses += st["misses"]
			res.CSErrors += st["errors"]
			res.CSEvictions += st["evictions"]
			res.CSLat.Merge(obs.ParseHistSnap(text, "lat"))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Calls, res.Retries, res.Errors, res.Bytes = calls.Load(), retries.Load(), errors.Load(), nbytes.Load()
	return res, nil
}
