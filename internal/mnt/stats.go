package mnt

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Mount-driver observability, process-wide: every handle's readahead
// and write-behind activity lands in these counters, and the machine
// serves them (together with the per-client RPC figures from
// ninep.Client.StatsGroup) as /net/mnt/stats. Process-wide rather than
// per-mount keeps the hot paths at one atomic add and matches
// how the numbers are read: "is the window earning its keep on this
// machine?"
var (
	// RAHits counts reads that consumed prefetched fragment bytes.
	RAHits atomic.Int64
	// RAMisses counts sequential-pattern reads that found nothing
	// buffered (including pattern breaks that restart the run).
	RAMisses atomic.Int64
	// RACancels counts abandoned prefetch queues (pattern break,
	// error, EOF) — each flushed its in-flight Treads.
	RACancels atomic.Int64
	// RAIssued counts speculative Treads issued by the prefetcher.
	RAIssued atomic.Int64
	// WBIssued counts write-behind fragments issued asynchronously.
	WBIssued atomic.Int64
	// WBBarriers counts barrier drains (read-your-writes, offset
	// jumps, close).
	WBBarriers atomic.Int64

	statsGroup = new(obs.Group).
			AddAtomic("ra-hits", &RAHits).
			AddAtomic("ra-misses", &RAMisses).
			AddAtomic("ra-cancels", &RACancels).
			AddAtomic("ra-issued", &RAIssued).
			AddAtomic("wb-issued", &WBIssued).
			AddAtomic("wb-barriers", &WBBarriers)
)

// StatsGroup exposes the mount driver's process-wide counters.
func StatsGroup() *obs.Group { return statsGroup }
