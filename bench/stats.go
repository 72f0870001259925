package main

import (
	"strconv"
	"strings"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/mnt"
	"repro/internal/obs"
)

// statFiles are the per-machine stats files a snapshot sums over the
// world, with the prefix their lines are booked under and the latency
// histogram, if the file has one, whose count and summed nanoseconds the
// snapshot keeps.
var statFiles = []struct{ prefix, path, hist string }{
	{"il", "/net/il/stats", "rtt"},
	{"tcp", "/net/tcp/stats", "rtt"},
	{"dk", "/net/dk/stats", ""},
	{"cs", "/net/cs/stats", "lat"},
	{"ip", "/net/ipstats", ""},
}

// isGauge reports whether a stat is a level, not a running count: the
// window reports its last value, not end minus start.
func isGauge(key string) bool {
	return strings.HasSuffix(key, "-max")
}

// snapshot reads every books the layers keep, summed over the world's
// machines: the stats files each machine serves, the process-wide mount
// driver and block allocator counters, and the books of the mounts and
// export servers the rig holds.
func (r *rig) snapshot() map[string]int64 {
	s := map[string]int64{}
	for _, m := range r.w.Machines() {
		for _, f := range statFiles {
			text, err := m.NS.ReadFile(f.path)
			if err != nil {
				continue
			}
			for k, v := range obs.ParseStats(spaced.Replace(string(text))) {
				s[f.prefix+"."+k] += v
			}
			if f.hist != "" {
				snap := obs.ParseHistSnap(string(text), f.hist)
				s[f.prefix+"."+f.hist+"-count"] += snap.Count
				s[f.prefix+"."+f.hist+"-sum-ns"] += snap.SumNs
			}
		}
		for k, v := range etherStats(m) {
			s["ether."+k] += v
		}
		if m.Resolver != nil {
			s["dns.wire-queries"] += m.Resolver.Queries
		}
	}
	for k, v := range mnt.StatsGroup().Snapshot() {
		s["mnt."+k] = v
	}
	b := r.mounts()
	s["mnt.rpcs"], s["mnt.flushes"], s["mnt.window-max"] = b.rpcs, b.flushes, b.windowMax

	for _, srv := range r.exports {
		for k, v := range obs.ParseStats(srv.Stats()) {
			if k == "workers-max" {
				s["export.workers-max"] = max(s["export.workers-max"], v)
			} else {
				s["export."+k] += v
			}
		}
	}

	bs := block.Snapshot()
	s["block.allocs"], s["block.pool-misses"], s["block.bytes-copied"] = bs.Allocs, bs.PoolMisses, bs.BytesCopied
	return s
}

// spaced renames the two /net/ipstats counters whose names hold a
// space, which obs.ParseStats takes for a conversation line and skips.
var spaced = strings.NewReplacer("bad headers:", "bad-headers:", "no route:", "no-route:")

// etherStats reads the interface counters of m's first Ethernet, which
// every conversation directory's stats file leads with.
func etherStats(m *core.Machine) map[string]int64 {
	ents, err := m.NS.ReadDir("/net/ether0")
	if err != nil {
		return nil
	}
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name); err != nil {
			continue
		}
		text, err := m.NS.ReadFile("/net/ether0/" + e.Name + "/stats")
		if err != nil {
			continue
		}
		s := obs.ParseStats(string(text))
		delete(s, "mtu")
		delete(s, "addr")
		return s
	}
	return nil
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statLayers turns a window's stat deltas into the [stat] per-layer
// metrics. ops is verified ops; bandwidth is the Ethernet's, in bytes
// per second.
func statLayers(rd *round, bandwidth int64) map[string]float64 {
	st := func(k string) float64 { return float64(rd.Stats[k]) }
	ops := float64(len(rd.SimLatNs))
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perKop := func(v float64) float64 { return ratio(1000*v, ops) }
	meanMs := func(prefix string) float64 { return ratio(st(prefix+"-sum-ns"), st(prefix+"-count")) / 1e6 }
	// The wire carries a 4-byte frame check sequence the interface
	// counters leave out.
	wire := st("ether.out-bytes") + 4*st("ether.out")
	return map[string]float64{
		"mnt.rpcs_per_op":              perOp(st("mnt.rpcs")),
		"mnt.window_max":               st("mnt.window-max"),
		"mnt.ra_hit_share":             ratio(st("mnt.ra-hits"), st("mnt.ra-hits")+st("mnt.ra-misses")),
		"mnt.ra_cancels_per_kop":       perKop(st("mnt.ra-cancels")),
		"mnt.wb_barriers_per_kop":      perKop(st("mnt.wb-barriers")),
		"ninep.flushes_per_kop":        perKop(st("mnt.flushes")),
		"exportfs.rpcs_per_op":         perOp(st("export.rpcs")),
		"exportfs.workers_max":         st("export.workers-max"),
		"ccache.hit_share":             ratio(st("export.cache-hits"), st("export.cache-hits")+st("export.cache-misses")),
		"ccache.evictions_per_kop":     perKop(st("export.cache-evictions")),
		"ccache.invalidations_per_kop": perKop(st("export.cache-invalidations")),
		"block.allocs_per_op":          perOp(st("block.allocs")),
		"block.pool_miss_share":        ratio(st("block.pool-misses"), st("block.allocs")),
		"block.bytes_copied_per_op":    perOp(st("block.bytes-copied")),
		"il.msgs_per_op":               perOp(st("il.msgs-sent")),
		"il.retrans_per_kop":           perKop(st("il.retransmits") + st("il.queries-sent")),
		"il.dups_per_kop":              perKop(st("il.dups-rcvd")),
		"il.rtt_ms_mean":               meanMs("il.rtt"),
		"tcp.segs_per_op":              perOp(st("tcp.segs-sent")),
		"tcp.retrans_per_kop":          perKop(st("tcp.retransmits")),
		"tcp.rtt_ms_mean":              meanMs("tcp.rtt"),
		"urp.blocks_per_op":            perOp(st("dk.blocks")),
		"urp.retrans_per_kop":          perKop(st("dk.retransmits") + st("dk.rejects") + st("dk.enquiries")),
		"ip.pkts_per_op":               perOp(st("ip.out")),
		"ip.drops_per_kop":             perKop(st("ip.bad-headers") + st("ip.no-route") + st("ip.unreachable")),
		"ether.frames_per_op":          perOp(st("ether.out")),
		"ether.wire_bytes_per_op":      perOp(wire),
		"ether.payload_share":          ratio(float64(rd.OpBytes)*ops, wire),
		"ether.line_busy_share":        ratio(wire/float64(bandwidth), float64(rd.SimWindowNs)/1e9),
		"ether.overflows_per_kop":      perKop(st("ether.overflows")),
		"cs.queries_per_op":            perOp(st("cs.queries")),
		"cs.hit_share":                 ratio(st("cs.cache-hits")+st("cs.neg-hits"), st("cs.queries")),
		"cs.errors_per_kop":            perKop(st("cs.errors")),
		"cs.lat_us_mean":               1000 * meanMs("cs.lat"),
		"dnssrv.wire_queries_per_kop":  perKop(st("dns.wire-queries")),
	}
}
