package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats the two lists
// below; the package's test holds them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share by which it may worsen
}

// endToEnd are the figures a user of the system sees. The driver takes
// a bound only if the metric's spread across ten seeds stays inside it,
// so each is about three times the widest spread any workload showed
// (README, A/A). For the simulated metrics that is how far a workload
// itself moves with the seed — gateway-relay's latencies come in 33 ms
// steps and its median hops between two of them — not how far a
// same-seed rerun moves, which is nothing; for the host metrics it is
// what a shared two-core VM allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_sim_ms_p50", "ms", "lower", 0.15},
	{"op_sim_ms_p99", "ms", "lower", 0.25},
	{"ops_per_sim_s", "1/s", "higher", 0.15},
	{"host_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the figures of single layers, by instrument: [stat] a
// delta of the layer's own books over the timed window, [span] from the
// boundary wrappers of the traced run, [probe] an isolated loop over the
// layer's public functions. README says which end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	{"mnt.rpcs_per_op", "count", "lower", 0},
	{"mnt.window_max", "count", "higher", 0},
	{"mnt.ra_hit_share", "share", "higher", 0},
	{"mnt.ra_cancels_per_kop", "count", "lower", 0},
	{"mnt.wb_barriers_per_kop", "count", "lower", 0},
	{"ns.resolve_ns", "ns", "lower", 0},
	{"ninep.rpc_sim_ms_p50", "ms", "lower", 0},
	{"ninep.rpc_sim_ms_p99", "ms", "lower", 0},
	{"ninep.send_wait_sim_ms_per_op", "ms", "lower", 0},
	{"ninep.reply_wait_sim_ms_per_op", "ms", "lower", 0},
	{"ninep.inflight_mean", "count", "higher", 0},
	{"ninep.srv_residency_sim_ms_p50", "ms", "lower", 0},
	{"ninep.srv_residency_sim_ms_p99", "ms", "lower", 0},
	{"ninep.flushes_per_kop", "count", "lower", 0},
	{"ninep.codec_ns_per_msg", "ns", "lower", 0},
	{"ninep.codec_allocs_per_msg", "count", "lower", 0},
	{"ninep.stream_adapter_ns_per_msg", "ns", "lower", 0},
	{"exportfs.rpcs_per_op", "count", "lower", 0},
	{"exportfs.workers_max", "count", "lower", 0},
	{"exportfs.tenant_lat_p99_over_p50", "ratio", "lower", 0},
	{"exportfs.backing_calls_per_op", "count", "lower", 0},
	{"exportfs.backing_wait_sim_ms_per_op", "ms", "lower", 0},
	{"ccache.hit_share", "share", "higher", 0},
	{"ccache.evictions_per_kop", "count", "lower", 0},
	{"ccache.invalidations_per_kop", "count", "lower", 0},
	{"ccache.hit_ns_per_frag", "ns", "lower", 0},
	{"ccache.miss_ns_per_frag", "ns", "lower", 0},
	{"ramfs.read_ns_per_8k", "ns", "lower", 0},
	{"ramfs.write_ns_per_8k", "ns", "lower", 0},
	{"streams.put_ns_per_block", "ns", "lower", 0},
	{"streams.table1_pipe_lat_host_us", "us", "lower", 0},
	{"streams.table1_pipe_thr_host_mbps", "MB/s", "higher", 0},
	{"block.allocs_per_op", "count", "lower", 0},
	{"block.pool_miss_share", "share", "lower", 0},
	{"block.bytes_copied_per_op", "bytes", "lower", 0},
	{"il.msgs_per_op", "count", "lower", 0},
	{"il.retrans_per_kop", "count", "lower", 0},
	{"il.dups_per_kop", "count", "lower", 0},
	{"il.rtt_ms_mean", "ms", "lower", 0},
	{"il.table1_lat_sim_ms", "ms", "lower", 0},
	{"il.table1_thr_sim_mbps", "MB/s", "higher", 0},
	{"il.echo_host_us", "us", "lower", 0},
	{"il.msgs_per_echo", "count", "lower", 0},
	{"il.connect_sim_ms", "ms", "lower", 0},
	{"tcp.segs_per_op", "count", "lower", 0},
	{"tcp.retrans_per_kop", "count", "lower", 0},
	{"tcp.rtt_ms_mean", "ms", "lower", 0},
	{"tcp.echo_sim_ms", "ms", "lower", 0},
	{"tcp.stream_sim_mbps", "MB/s", "higher", 0},
	{"tcp.echo_host_us", "us", "lower", 0},
	{"tcp.segs_per_echo", "count", "lower", 0},
	{"urp.blocks_per_op", "count", "lower", 0},
	{"urp.retrans_per_kop", "count", "lower", 0},
	{"urp.table1_lat_sim_ms", "ms", "lower", 0},
	{"urp.table1_thr_sim_mbps", "MB/s", "higher", 0},
	{"urp.echo_host_us", "us", "lower", 0},
	{"urp.blocks_per_echo", "count", "lower", 0},
	{"datakit.call_setup_sim_ms", "ms", "lower", 0},
	{"cyclone.table1_lat_sim_ms", "ms", "lower", 0},
	{"cyclone.table1_thr_sim_mbps", "MB/s", "higher", 0},
	{"ip.pkts_per_op", "count", "lower", 0},
	{"ip.drops_per_kop", "count", "lower", 0},
	{"ether.frames_per_op", "count", "lower", 0},
	{"ether.wire_bytes_per_op", "bytes", "lower", 0},
	{"ether.payload_share", "share", "higher", 0},
	{"ether.line_busy_share", "share", "higher", 0},
	{"ether.overflows_per_kop", "count", "lower", 0},
	{"medium.pipe_ns_per_msg", "ns", "lower", 0},
	{"dialer.dial_sim_ms_p50", "ms", "lower", 0},
	{"dialer.dial_sim_ms_p99", "ms", "lower", 0},
	{"dialer.close_sim_ms_p50", "ms", "lower", 0},
	{"netdev.conv_setup_host_us", "us", "lower", 0},
	{"cs.queries_per_op", "count", "lower", 0},
	{"cs.hit_share", "share", "higher", 0},
	{"cs.errors_per_kop", "count", "lower", 0},
	{"cs.lat_us_mean", "us", "lower", 0},
	{"cs.translate_hot_ns", "ns", "lower", 0},
	{"cs.translate_miss_ns", "ns", "lower", 0},
	{"ndb.lookup_hashed_ns", "ns", "lower", 0},
	{"dnssrv.wire_queries_per_kop", "count", "lower", 0},
	{"vclock.handoff_ns", "ns", "lower", 0},
	{"vclock.handoff_allocs", "count", "lower", 0},
	{"vclock.timer_ns", "ns", "lower", 0},
	{"budget.send_wait_sim_ms_per_op", "ms", "lower", 0},
	{"budget.srv_residency_sim_ms_per_op", "ms", "lower", 0},
	{"budget.reply_wait_sim_ms_per_op", "ms", "lower", 0},
	{"budget.transport_sim_ms_per_op", "ms", "lower", 0},
	{"budget.mount_idle_sim_ms_per_op", "ms", "lower", 0},
}

// rank returns the q'th quantile of sorted latencies by nearest rank,
// so that the figure is one of the latencies observed.
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// simMetrics are a round's simulated end-to-end figures.
func simMetrics(rd *round) map[string]sample {
	n := len(rd.SimLatNs)
	lat := sortedCopy(rd.SimLatNs)
	return map[string]sample{
		"op_sim_ms_p50": exact("ms", ms(rank(lat, 0.50)), n),
		"op_sim_ms_p99": exact("ms", ms(rank(lat, 0.99)), n),
		"ops_per_sim_s": exact("1/s", ratio(float64(n), float64(rd.SimWindowNs)/1e9), n),
	}
}

// hostBook is the one book that is not the simulation's to fix: the
// block allocator's pool is a sync.Pool, which the collector empties
// when the host, not the virtual clock, says so.
const hostBook = "block.pool-misses"

// digest folds everything about a round that must repeat exactly —
// every op's simulated latency in order, the window, the books — into
// one value, so that two rounds compare bit for bit.
func digest(rd *round, withStats bool) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	put(int64(rd.Attempted))
	put(int64(rd.Failed))
	put(rd.SimWindowNs)
	for _, v := range rd.SimLatNs {
		put(v)
	}
	if withStats {
		keys := make([]string, 0, len(rd.Stats))
		for k := range rd.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k != hostBook {
				h.Write([]byte(k))
				put(rd.Stats[k])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// spanLayers turns a traced window's spans into the [span] metrics.
func spanLayers(st *spanStats, rd *round) map[string]float64 {
	ops := float64(len(rd.SimLatNs))
	perOpMs := func(ns int64) float64 { return ratio(float64(ns)/1e6, ops) }
	rpc, res := sortedCopy(st.rpcNs), sortedCopy(st.residencyNs)
	dial, hang := sortedCopy(st.dialNs), sortedCopy(st.hangupNs)
	m := map[string]float64{
		"ninep.rpc_sim_ms_p50":                ms(rank(rpc, 0.50)),
		"ninep.rpc_sim_ms_p99":                ms(rank(rpc, 0.99)),
		"ninep.send_wait_sim_ms_per_op":       perOpMs(st.sendWaitNs),
		"ninep.reply_wait_sim_ms_per_op":      perOpMs(st.replyWaitNs),
		"ninep.inflight_mean":                 ratio(float64(st.outstanding), float64(rd.SimWindowNs)),
		"ninep.srv_residency_sim_ms_p50":      ms(rank(res, 0.50)),
		"ninep.srv_residency_sim_ms_p99":      ms(rank(res, 0.99)),
		"exportfs.backing_calls_per_op":       ratio(float64(st.backing), ops),
		"exportfs.backing_wait_sim_ms_per_op": perOpMs(st.backingNs),
		"dialer.dial_sim_ms_p50":              ms(rank(dial, 0.50)),
		"dialer.dial_sim_ms_p99":              ms(rank(dial, 0.99)),
		"dialer.close_sim_ms_p50":             ms(rank(hang, 0.50)),
	}
	b := st.budget
	if b == nil {
		b = &simBudget{}
	}
	per := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(b.ops)) }
	m["budget.send_wait_sim_ms_per_op"] = per(b.sendWait)
	m["budget.srv_residency_sim_ms_per_op"] = per(b.residency)
	m["budget.reply_wait_sim_ms_per_op"] = per(b.replyWait)
	m["budget.transport_sim_ms_per_op"] = per(b.transport)
	m["budget.mount_idle_sim_ms_per_op"] = per(b.mountIdle)
	return m
}
