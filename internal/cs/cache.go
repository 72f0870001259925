package cs

import (
	"time"

	"repro/internal/vclock"
	"repro/internal/vfs"
)

// The answer cache's bounds. A translation is cheap to recompute, so
// the TTLs exist to bound staleness against DNS (ndb staleness is
// handled exactly by the version check), and the capacity to bound
// memory: a machine's dialers ask a few dozen distinct questions.
const (
	ttl        = 60 * time.Second
	negTTL     = 5 * time.Second // ErrNotExist answers
	maxEntries = 4096
)

// ckey identifies one cached translation: the trimmed query plus the
// bitmask of networks that probed reachable when it was asked.
// Reachability changes as imports land (§6.1) — a changed probe answer
// changes the mask, so a cached answer can never outlive the topology
// it was computed for. The key is a comparable struct, not a built
// string, so the hit path allocates nothing.
type ckey struct {
	q    string
	nets uint64
}

// centry is one cached answer. It is immutable once stored, so a hit
// hands out lines without copying (Answer copies on demand).
type centry struct {
	lines  []string
	err    error // non-nil: a negatively cached ErrNotExist
	expire int64 // clock nanoseconds after which the entry is stale
	ver    int64 // ndb.DB.Version the answer was computed against
}

// flight is one in-progress computation that concurrent identical
// misses join instead of repeating: a boot storm's identical queries
// do one DB/DNS walk, not one each. Followers wait on a vclock.Cond so
// the collapse also works under the discrete-event clock, where
// parking on a bare channel would stall the scheduler.
type flight struct {
	cond  vclock.Cond
	done  bool
	lines []string
	err   error
}

// outcome says how answer found its lines.
type outcome int

const (
	hit    outcome = iota // a fresh cache entry
	joined                // another caller's flight
	led                   // this caller's own computation
)

// answer returns k's answer: a fresh cache entry, or the result of the
// flight computing it, led by this caller if none is in progress. The
// lock is never held across compute, which may consult DNS and park on
// the clock; the leader stores the entry before waking the followers.
// ver is read before the probe and the computation, so an ndb.Replace
// racing either leaves the entry stale, never wrong.
func (s *Server) answer(k ckey, ver, now int64, compute func() ([]string, error)) ([]string, error, outcome) {
	s.mu.Lock()
	if e := s.cache[k]; e != nil && e.ver == ver && now < e.expire {
		s.mu.Unlock()
		return e.lines, e.err, hit
	}
	if f, ok := s.flights[k]; ok {
		for !f.done {
			f.cond.Wait()
		}
		s.mu.Unlock()
		return f.lines, f.err, joined
	}
	f := &flight{}
	f.cond.Init(s.clock, &s.mu)
	s.flights[k] = f
	s.mu.Unlock()

	lines, err := compute()

	s.mu.Lock()
	s.storeLocked(k, lines, err, ver, now)
	f.lines, f.err, f.done = lines, err, true
	delete(s.flights, k)
	f.cond.Broadcast()
	s.mu.Unlock()
	return lines, err, led
}

// storeLocked caches a computed answer. Successes get the positive
// TTL; ErrNotExist is negatively cached with the shorter one, so a
// storm of dials to a dead name does not walk the database every time;
// other errors (bad query, no network) are not cached at all.
func (s *Server) storeLocked(k ckey, lines []string, err error, ver, now int64) {
	life := ttl
	if err != nil {
		if err != vfs.ErrNotExist {
			return
		}
		life = negTTL
	}
	if _, ok := s.cache[k]; !ok && len(s.cache) >= maxEntries {
		s.evictLocked(ver, now)
	}
	s.cache[k] = &centry{lines: lines, err: err, expire: now + int64(life), ver: ver}
}

// evictLocked makes room for one entry: it drops every entry that has
// expired or was computed against an older database, and if that
// frees nothing, the entry due to expire first, the smaller key on a
// tie, so that a seed replays.
func (s *Server) evictLocked(ver, now int64) {
	for k, e := range s.cache {
		if now >= e.expire || e.ver < ver {
			delete(s.cache, k)
			s.Evictions.Add(1)
		}
	}
	if len(s.cache) < maxEntries {
		return
	}
	var vk ckey
	var ve *centry
	for k, e := range s.cache {
		if ve == nil || e.expire < ve.expire ||
			e.expire == ve.expire && (k.q < vk.q || k.q == vk.q && k.nets < vk.nets) {
			vk, ve = k, e
		}
	}
	delete(s.cache, vk)
	s.Evictions.Add(1)
}
