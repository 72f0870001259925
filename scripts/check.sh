#!/bin/sh
# check.sh — the repo's tier-1 gate: formatting, vet, build, the full
# test suite under the race detector (where the virtual clock's
# held-lock check fails a lock held across a park, and leakcheck's books
# fail a goroutine, block or FD left over), greps that keep one
# mechanism per job, seed sweeps of the protocol torture harness, and
# short fuzz smokes over the wire-facing parsers.
# Everything must pass for a PR to land.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi
# There is one block (block.Block); the wrapper's conversions stay gone.
if grep -rnE 'TakeInner|NewBlockOwned' --include='*.go' internal cmd examples bench | grep -v testdata; then
    echo "the streams.Block wrapper's conversions are back (see above)" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
# A held-lock panic is printed before it unwinds, and a deferred cleanup
# that takes a lock a lower frame holds can block the unwind; the
# timeout ends such a run in minutes, not at the default ten. The
# slowest package binary under -race (storm) takes under a minute on a
# 2-CPU host.
go test -race -timeout 5m ./...

echo "== vclock scheduler under the race detector, ten times"
# A park hands the token straight to the next goroutine and a Go reuses
# an idle host goroutine, so the scheduler's state is touched from every
# machine goroutine, and the scheduler takes no lock: only the token's
# holder may touch its run queue, event heap and clock, and this loop is
# the proof that only the holder does. It loops vclock's tests, and
# medium's and ether's, whose delay lines and paced segments arm events
# from events and from processes, to shake out a missed hand-off. The
# real-clock tests leave the scheduler alone and time the host
# (TestRealSleepUntilPrecision allows 2 ms), so they stay out.
go test -race -count=10 -skip '^TestReal' ./internal/vclock ./internal/medium ./internal/ether

echo "== one clock: who may name the real clock"
# Every goroutine the program starts runs on a clock the virtual
# scheduler can see, unless host time is the measurement. These are the
# only non-test files outside internal/vclock (the clock itself) that
# may name vclock.Real or vclock.Or:
#   internal/table1/table1.go   Table 1's pipes row and BuildWorld time the host (bench's probes)
#   internal/streams/stream.go  streams.New, the pipes row's stream and bench's probe stream
#   internal/core/world.go      core.NewWorld, bench's host-cost world
#   internal/medium/medium.go   medium.NewPipe reads a nil clock as Real for bench's probeMedium
#   internal/cs/cs.go           cs.New reads a nil clock as Real for bench's probeNaming
real=$(grep -rlE '\bvclock\.(Real|Or)\b' --include='*.go' internal cmd examples | grep -v '_test\.go$' | grep -v '^internal/vclock/' | sort)
allow="internal/core/world.go
internal/cs/cs.go
internal/medium/medium.go
internal/streams/stream.go
internal/table1/table1.go"
if [ "$real" != "$allow" ]; then
    echo "non-test files naming vclock.Real or vclock.Or:" >&2
    echo "$real" >&2
    echo "want exactly:" >&2
    echo "$allow" >&2
    exit 1
fi

echo "== one clock: no wall-clock call outside vclock"
# A timestamp or timer that does not go through a vclock.Clock anchors
# a virtual run to the host and breaks same-seed replay. Outside
# internal/vclock no non-test file calls the real clock, and neither
# does a test in a package whose tests run inside vclock.Virtual.Run:
# every paper-world test, every test of the transports, the devices,
# 9P, the mount driver, exportfs and the torture harness that waits, and
# every command and example with its golden test. A call that times the
# host on purpose (bench's probes, storm's wall-clock half, leakcheck's
# grace period, a test of a lock that would stop the virtual clock
# itself) carries //netvet:ignore realtime <reason> on its own line; a
# marker on a line with no such call is stale. Converting more
# packages' tests grows the list.
wall='\btime\.(Now|Since|Until|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick)\('
onclock='^(internal/(core|dialer|ftp|table1|ether|medium|cs|il|uart|datakit|urp|cyclone|ip|tcp|udp|netdev|dnssrv|xport|ninep|mnt|exportfs|torture|devtree|leakcheck|streams)|cmd|examples)/'
if { grep -rnE "$wall" --include='*.go' internal cmd examples bench | grep -v '_test\.go:'
    grep -rnE "$wall" --include='*_test.go' internal cmd examples | grep -E "$onclock"; } \
    | grep -v -e testdata -e '^internal/vclock/' | grep -v '//netvet:ignore realtime [^[:space:]]'; then
    echo "wall-clock calls where a vclock.Clock should be threaded (see above)" >&2
    exit 1
fi
if grep -rn '//netvet:ignore realtime' --include='*.go' internal cmd examples bench | grep -vE "$wall"; then
    echo "//netvet:ignore realtime on a line with no wall-clock call: delete it (see above)" >&2
    exit 1
fi

echo "== one ctl vocabulary: netmsg spells the verbs"
# The ASCII ctl messages are a wire protocol (§2.3, §5): internal/netmsg
# formats them and the devices parse them, so a writer that spells a
# verb out itself drifts from both. No non-test Write, WriteString or
# WriteCtl elsewhere starts its argument with a verb, bare, through
# []byte( or through fmt.Sprintf(.
if grep -rnE '\.(Write|WriteString|WriteCtl)\((\[\]byte\(|fmt\.Sprintf\()?"(connect|announce|reject|push|pop|hangup|promiscuous)[ "\\]' \
    --include='*.go' internal cmd examples bench | grep -v '_test\.go:' | grep -v -e testdata -e '^internal/netmsg/'; then
    echo "a ctl message spelled out beside the netmsg helpers (see above)" >&2
    exit 1
fi

echo "== one lock discipline: who may declare a sync lock"
# Plan 9's rule that a process never parks holding a lock is a runtime
# check: a vclock.Lock bound to a virtual clock counts itself held by
# the running process, and every primitive that may park panics on
# entry while one is, so a path that holds one across a park fails the
# first time a test runs it, and the race build panics at the first
# lock-order inversion among them. A lock that must be held across a
# park is a vclock.Mutex. A sync.Mutex or RWMutex counts nothing, so the
# only ones are leaf locks whose critical sections call nothing outside
# their package but the standard library, each named here with its
# reason. The virtual scheduler has none: its token is its lock.
#   block/race_on.go    the race build's allocation-site map
#   devtree/devtree.go  a status file's snapshot text (the render runs unlocked)
#   devtree/devtree.go  a query file's answer lines (the query runs unlocked)
#   dnssrv/server.go    a zone's records, read by the server's loop
#   ndb/ndb.go          a database file's hash tables
#   ns/fd.go            a descriptor's offset and closed flag
#   ns/ns.go            the mount table's writers: copy, change, swap
#   torture/torture.go  a report's violation list
#   vclock/lock.go      a Lock on the real clock (bound to a virtual one, it is a count)
#   vclock/mailbox.go   a Mailbox's queue, shared with its Cond
#   vclock/mutex.go     a Mutex's held flag, shared with its waiters' Cond
#   vclock/race_on.go   the race build's lock-order graph, shared by every clock
#   vclock/waitgroup.go a WaitGroup's count, shared with its Cond
locks=$(grep -rnE 'sync\.(RW)?Mutex\b' --include='*.go' internal cmd examples | grep -v '_test\.go:' | grep -v testdata \
    | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' \
    | sed -E 's/^([^:]*):[0-9]+:[[:space:]]*([A-Za-z_]+[[:space:]]+)?(sync\.(RW)?Mutex).*/\1 \2\3/' | tr -s ' ' | sort)
allow="internal/block/race_on.go sync.Mutex
internal/devtree/devtree.go mu sync.Mutex
internal/devtree/devtree.go mu sync.Mutex
internal/dnssrv/server.go mu sync.RWMutex
internal/ndb/ndb.go mu sync.RWMutex
internal/ns/fd.go mu sync.Mutex
internal/ns/ns.go mu sync.Mutex
internal/torture/torture.go mu sync.Mutex
internal/vclock/lock.go mu sync.Mutex
internal/vclock/mailbox.go mu sync.Mutex
internal/vclock/mutex.go mu sync.Mutex
internal/vclock/race_on.go sync.Mutex
internal/vclock/waitgroup.go mu sync.Mutex"
if [ "$locks" != "$allow" ]; then
    echo "non-test sync locks:" >&2
    echo "$locks" >&2
    echo "want exactly (a new lock is a vclock.Lock, Init on its clock):" >&2
    echo "$allow" >&2
    exit 1
fi

echo "== no raw channels on the clock"
# A machine process parks only in the clock's primitives, where the
# scheduler sees it and the held-lock check runs: a channel operation,
# a select, a sync.WaitGroup or sync.Cond wait is a park neither can
# see, and a send, receive or range on a channel with a lock held was
# the channel half of the old static lock-across-send check. Outside
# the clock and the leak checker (which watches the host), no non-test
# code uses them.
if grep -rnE '\bchan\b|\bselect \{|sync\.(WaitGroup|Cond)\b' --include='*.go' internal cmd examples | grep -v '_test\.go:' | grep -v testdata \
    | grep -v -e '^internal/vclock/' -e '^internal/leakcheck/'; then
    echo "a raw channel or sync wait in code that runs on the clock (see above)" >&2
    exit 1
fi

echo "== one line: no device write sleeps out its wire time"
# Every medium books its wire on a medium.Pacer and puts what it sends
# on a medium.Delay, a queue whose one clock event runs the receiver at
# each item's instant; a writer that sleeps in its own put chain (the
# UART's old transmit) is a second pacing model. Outside the clock
# itself, the only non-test caller of SleepUntil is URP's wait, once a
# message, for its last cell to leave.
sleepers=$(grep -rlE '\.SleepUntil\(' --include='*.go' internal cmd examples | grep -v '_test\.go$' | grep -v testdata | grep -v '^internal/vclock/' | sort)
allow="internal/urp/urp.go"
if [ "$sleepers" != "$allow" ]; then
    echo "non-test files calling SleepUntil:" >&2
    echo "$sleepers" >&2
    echo "want exactly:" >&2
    echo "$allow" >&2
    exit 1
fi
# A wire is a function call: no line, pipe or impairer runs a process.
if grep -rnE '\.Go\(' --include='*.go' internal/medium | grep -v '_test\.go:'; then
    echo "package medium starts a process (see above)" >&2
    exit 1
fi

echo "== one stream per conversation"
# A conversation is one stream, the one its protocol reads through: a
# push lands on it, upstream runs on the reading process and downstream
# on the writing one. A second stream wrapped around a conversation,
# with a process pumping one into the other, is a second mechanism for
# the same job.
if grep -rnE '\.Go\(' --include='*.go' internal/streams | grep -v '_test\.go:'; then
    echo "package streams starts a process (see above)" >&2
    exit 1
fi
if grep -rnE 'streams\.(NewLine|Line)\b' --include='*.go' internal cmd examples bench | grep -v '_test\.go:' | grep -v testdata; then
    echo "a conversation is wrapped in a second stream (see above)" >&2
    exit 1
fi

echo "== one timer per conversation"
# An IL, TCP or URP conversation's one timer is its vclock.Deadline,
# from the first send through the close's linger to leaving the demux
# table: resends, death and the end all ride it. A transport that starts
# a timer or a process of its own (the close-time AfterFuncs, a Go to
# leave the table) is a second timer mechanism beside it.
if grep -rnE 'AfterFunc\(|\.Go\(' --include='*.go' internal/il internal/tcp internal/urp internal/xport | grep -v '_test\.go:'; then
    echo "a transport starts a timer or a process of its own (see above)" >&2
    exit 1
fi

echo "== one splitter"
# A line discipline that frames its messages on the wire (batch, frame,
# compress) reassembles them upstream through the package's splitter
# (internal/streams/split.go), the one holder of a partial frame's
# bytes, its lock and its poisoned flag. A module that keeps a partial
# buffer of its own is a second reassembler beside it.
if grep -nE '^[^/]*\bpartial\b' $(ls internal/streams/*.go | grep -v -e '_test\.go$' -e '/split\.go$'); then
    echo "a streams module reassembles frames on its own (see above)" >&2
    exit 1
fi

echo "== no line parks"
# A wire's delay line runs its receiver on a clock event, which may not
# park, so no line delivers with DeviceUp, which parks while the stream
# holds its limit. The Ethernet segment (UDP, IL and TCP on it) and
# URP's circuit leg deliver through the refusing put, Stream.Produce,
# and the protocol's window carries the backpressure; Cyclone's fiber
# and the UART, which lose nothing and resend nothing, deliver with
# Stream.Deliver what their sender's credit (Stream.Reserve) paid for.
# Only table1's pipe, two streams cross-connected on the real clock,
# delivers from the writing process itself.
if grep -rn '\.DeviceUp(' --include='*.go' internal cmd examples | grep -v '_test\.go:' | grep -v testdata \
    | grep -v -e '^internal/streams/' -e '^internal/table1/table1\.go:'; then
    echo "a line delivers with a put that parks (see above)" >&2
    exit 1
fi

echo "== bench module: vet + tests (race)"
# The benchmark is a module of its own (repro/bench, replace repro =>
# ../), so the ./... patterns above do not reach it.
(cd bench && go vet ./... && go test -race ./...)

echo "== block discipline: AllocsPerRun gates (race off)"
# The race detector's instrumentation allocates, so these self-skip
# under -race above and run here without it: a copy or pool bypass
# creeping back into the hot paths fails the gate, and so does a
# goroutine per packet on the transmit path (tcp TestAllocsSegmentSend),
# a station snapshot per frame on the segment (ether
# TestAllocsUnicastFanOut), a detached frame or wrapper per frame on the
# paced wire (ether TestAllocsPacedUnicast), a conversation's
# deadline that allocates
# when an ack re-arms it (il TestAllocsRearmOnAck, vclock
# TestAllocsDeadlineUpdate), a send queue that grows a new array per
# write once acks have trimmed it (urp and tcp TestAllocsWriteAck), or
# any allocation in a 9P RPC: a Pending or srvReq made afresh instead
# of reused, or a copy of an Rread's or Twrite's data out of its wire
# buffer (ninep TestAllocsRreadRoundTrip, TestAllocsTwriteRoundTrip), a
# write-behind that copies a sequential write into a buffer of its own
# (mnt TestAllocsWriteBehind), a cat through a serial mount that costs a fid
# beside its node or handle, a string per stat name or an FD per open
# (mnt TestAllocsCat), a stat record that decodes to more than one
# string (vfs TestAllocsUnmarshalDir), a call to an echo service past its
# bytes- or objects-per-dial bound, dial to hangup (core
# TestAllocsDialBytes), a Cyclone receive that copies or draws a buffer
# instead of wrapping the one the fiber delivered (cyclone
# TestAllocsReceive), a name walk that allocates beyond the nodes it
# returns (ns TestAllocsResolve), a conversation directory that a repeat
# walk builds again instead of returning the tenancy's generated nodes
# (netdev and devtree TestAllocsConvWalk), a query file that joins an
# answer line to its newline on every read (devtree
# TestAllocsQueryRead), a deadline made of closures over its
# conversation (vclock TestAllocsDeadlineInit) or whose first arm
# makes one (vclock TestAllocsDeadlineFirstArm), a clock event whose
# arming allocates (vclock TestAllocsArmEvent), a pipe with its
# receiver installed that builds the default mailbox or allocates per
# send beyond its line's ring (medium TestAllocsReceiverBeforeTraffic),
# an import past its objects-per-import bound, dial to unmount, over
# Datakit (exportfs TestAllocsImport), or a conversation's
# stream that costs more than one object, or a pushed module more than
# one for its two queues (streams TestAllocsConvStream), or a whole frame coming up
# through the splitter that is copied, or costs more than its
# expansion block (streams TestAllocsSplitWholeFrame), or a refusing
# put that allocates, whether it queues or refuses (streams
# TestAllocsProduce), or a cache hit or read past a file's end that
# leaves the zero-copy path (ccache TestAllocsCacheHitReadBlock,
# TestAllocsPastEOFReadBlock), or a hangup or ctl message made outside
# the block pools (block TestAllocsControl), or a vclock.Lock whose
# held count allocates (vclock TestAllocsLockUncontended). Without -race there is also no
# allocation-site recorder (block/race_on.go, which lets leakcheck name
# a leaked block's site): it takes a stack per Alloc, about 0.8 us, or
# twelve times an Alloc/Free pair (BenchmarkAllocFree16K, 68 -> 857 ns
# on a 2-CPU host), so only the race build above pays for it, and these
# gates and the benchmark measure the allocator as it ships.
go test -run '^TestAllocs' -count=1 ./internal/block ./internal/streams ./internal/ccache ./internal/ninep ./internal/mnt ./internal/core ./internal/cs ./internal/tcp ./internal/urp ./internal/vclock ./internal/ether ./internal/il ./internal/ns ./internal/netdev ./internal/devtree ./internal/cyclone ./internal/medium ./internal/exportfs ./internal/vfs

echo "== chaos: 100-seed sweep"
# The discrete-event clock makes a whole seed sweep affordable: every
# protocol crosses the impairment cocktail under 100 different
# schedules in about half a second of wall time, each session inside the
# scenario's 25 s simulated watchdog. A failure ddmin-shrinks to its
# minimal scenario and exits nonzero.
go run ./cmd/netsim -chaos -seed 1 -seeds 100 -msgs 40

echo "== chaos: line-discipline sweep (batch+compress pushed both ends)"
# The same matrix with the §2.4 modules dressed on every conversation:
# the disciplines must survive loss, duplication, reordering and
# corruption on all five protocols without breaking the byte streams
# they carry. (Same-seed byte-determinism of the dressed runs is pinned
# separately by TestChaosDeterminismModules under go test above.)
go run ./cmd/netsim -chaos -seed 1 -seeds 8 -msgs 40 -mods 'compress,batch 1024 2ms'

echo "== stats conformance: /net files vs wire ground truth"
# The conformance suite balances every /net/*/stats file against the
# impairment engine's own books (drops, dups, corrupted emissions) —
# the observability layer must never disagree with the wire.
go test -run '^TestStatsConformance' -count=1 ./internal/torture

echo "== coverage floors"
# One table, one function. obs rides every hot path; exportfs is the
# serving stack's front door; ccache hands out refcounted memory on the
# gateway's hot path; xport is the scaffold every IL and TCP
# conversation stands on, and devtree the conversation table every
# Ethernet and protocol-device conversation lives in; ninep and mnt are
# the mount path, where one window carries every large transfer; vclock
# holds every primitive a simulated machine may block in, the lock that
# fails any of them entered with it held and the Mutex that may be
# held across a park, and ns resolves every path
# on a mount-table snapshot its writers replace under its readers. Three
# floors are higher: the line disciplines in streams rewrite every byte
# a dressed conversation carries, cs answers every symbolic dial, so a
# silent miscount there skews every experiment, and il's recovery path
# runs only when a wire loses something, which is when it must be right.
floor() {
    cov=$(go test -cover "./internal/$1" | awk '{ for (i = 1; i <= NF; i++) if ($i == "coverage:") print $(i+1) }' | tr -d '%')
    if [ -z "$cov" ] || [ "$(printf '%.0f' "$cov")" -lt "$2" ]; then
        echo "internal/$1 coverage ${cov:-unknown}% < $2%" >&2
        exit 1
    fi
    echo "internal/$1 coverage ${cov}% (floor $2%)"
}
for f in obs:80 exportfs:80 ccache:80 xport:80 devtree:80 mnt:80 ninep:80 vclock:80 ns:80 il:85 streams:85 cs:85; do
    floor "${f%:*}" "${f#*:}"
done

echo "== code size: the paper's §3 yardstick (IL is 847 lines)"
# EXPERIMENTS §2 "IL is small" as a gate: il.go has been over the
# paper's figure before without anyone noticing. The rows printed are
# the ones that table records.
lines() { cat "$@" | wc -l | tr -d ' '; }
il=$(lines internal/il/il.go)
tcp=$(lines internal/tcp/tcp.go)
udp=$(lines internal/udp/udp.go)
xport=$(lines $(ls internal/xport/*.go | grep -v _test.go))
echo "il.go $il  tcp.go $tcp  udp.go $udp  xport/*.go $xport  total $((il + tcp + udp + xport))"
echo "urp.go $(lines internal/urp/urp.go)  vclock/deadline.go $(lines internal/vclock/deadline.go)  storm/*.go $(lines $(ls internal/storm/*.go | grep -v _test.go))  cmd/netsim/main.go $(lines cmd/netsim/main.go)"
echo "ninep/client.go $(lines internal/ninep/client.go)  mnt/mnt.go $(lines internal/mnt/mnt.go)  exportfs.go $(lines internal/exportfs/exportfs.go)  ninep/server.go $(lines internal/ninep/server.go)  core/services.go $(lines internal/core/services.go)"
echo "vclock/*.go $(lines $(ls internal/vclock/*.go | grep -v _test.go))  ninep/transport.go $(lines internal/ninep/transport.go)  ns/ns.go $(lines internal/ns/ns.go)"
echo "block/*.go $(lines $(ls internal/block/*.go | grep -v _test.go))  leakcheck/*.go $(lines $(ls internal/leakcheck/*.go | grep -v _test.go))  streams/*.go $(lines $(ls internal/streams/*.go | grep -v _test.go))"
echo "cs/*.go $(lines $(ls internal/cs/*.go | grep -v _test.go))"
echo "cmd/*/*.go $(lines $(ls cmd/*/*.go | grep -v _test.go))  examples/*/*.go $(lines $(ls examples/*/*.go | grep -v _test.go))"
echo "ip/stack.go $(lines internal/ip/stack.go)  ether/ether.go $(lines internal/ether/ether.go)  ether/dev.go $(lines internal/ether/dev.go)  netdev.go $(lines internal/netdev/netdev.go)  devtree/*.go $(lines $(ls internal/devtree/*.go | grep -v _test.go))  medium.go $(lines internal/medium/medium.go)  medium/delay.go $(lines internal/medium/delay.go)  uart.go $(lines internal/uart/uart.go)"
echo "datakit.go $(lines internal/datakit/datakit.go)  cyclone.go $(lines internal/cyclone/cyclone.go)  urp.go + medium.go + delay.go + datakit.go + cyclone.go $(lines internal/urp/urp.go internal/medium/medium.go internal/medium/delay.go internal/datakit/datakit.go internal/cyclone/cyclone.go)"
if [ "$il" -gt 847 ]; then
    echo "internal/il/il.go is $il lines, over the paper's 847" >&2
    exit 1
fi

# Two same-seed runs of a storm must agree byte for byte once the
# wall-clock tail of the report is stripped.
same_twice() {
    run1=$(go run ./cmd/netsim "$@" | sed 's/ in [^ ]* wall$//')
    run2=$(go run ./cmd/netsim "$@" | sed 's/ in [^ ]* wall$//')
    if [ "$run1" != "$run2" ]; then
        echo "netsim $* diverged across same-seed runs:" >&2
        echo "  $run1" >&2
        echo "  $run2" >&2
        exit 1
    fi
    echo "$run1"
}

echo "== gateway storm smoke (determinism of the 60-tenant import storm)"
# One exporter, sixty machines importing through the shared gateway
# server and its cache: reads, bytes, conns and the cache's hits and
# misses must repeat.
same_twice -virtual -gateway -machines 60 -simtime 10s -seed 1

echo "== registry storm smoke (determinism of the t=0 dial storm)"
# The no-stagger dial storm: calls, retries, CS books and latency
# quantiles must repeat.
same_twice -virtual -registry -machines 60 -simtime 4s -seed 1

echo "== package benchmarks still run (one iteration each)"
# Nothing is recorded: this only keeps the cs, ndb, streams and ninep
# benchmarks from rotting.
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== fuzz smoke (10s per parser)"
# One list, one loop. -fuzzminimizetime 5x: a crasher found during a
# smoke should minimize in a handful of runs, not stall the gate for the
# default 60s.
for f in il:FuzzParseHeader ip:FuzzUnmarshal tcp:FuzzUnmarshal udp:FuzzRecv urp:FuzzRecv dnssrv:FuzzUnmarshal ninep:Fuzz9PMessage streams:FuzzCompressFrame streams:FuzzBatchReassembly ndb:FuzzParse netmsg:FuzzCtl ftp:FuzzReadReply ns:FuzzResolve datakit:FuzzCellFCS; do
    go test -run '^$' -fuzz "^${f#*:}\$" -fuzztime 10s -fuzzminimizetime 5x "./internal/${f%:*}"
done

echo "check.sh: all gates passed"
