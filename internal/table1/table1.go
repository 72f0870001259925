// Package table1 regenerates Table 1 of the paper (§8): latency and
// throughput of reading and writing bytes between two processes, for
// each communication path:
//
//	test          throughput   latency
//	              MBytes/sec   millisec
//	pipes            8.15        .255
//	IL/ether         1.02        1.42
//	URP/Datakit      0.22        1.75
//	Cyclone          3.2         0.375
//
// "The latency is measured as the round trip time for a byte sent from
// one process to another and back again. Throughput is measured using
// 16k writes from one process to another."
//
// Our substrate is a simulator, not 25 MHz MIPS hardware, so absolute
// numbers differ; the media are calibrated (core.CalibratedProfiles)
// so the *shape* holds: Cyclone fastest, then IL/ether, with
// URP/Datakit slowest in throughput and the same ordering reversed for
// latency. The three network rows run on a discrete-event clock, so
// they are exact and the same on every run. The pipes row crosses no
// simulated medium: it is measured on the real clock, as host cost.
package table1

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/ns"
	"repro/internal/streams"
	"repro/internal/vclock"
)

// Config sets workload sizes.
type Config struct {
	Profiles core.PaperProfiles
	// WriteSize is the throughput write size (the paper's 16k).
	WriteSize int
	// TotalBytes is how much to move when measuring throughput.
	TotalBytes int
	// Pings is how many 1-byte round trips to time.
	Pings int
}

// DefaultConfig measures on calibrated media with enough volume for
// stable numbers at simulated-medium speeds.
func DefaultConfig() Config {
	return Config{
		Profiles:   core.CalibratedProfiles(),
		WriteSize:  16 * 1024,
		TotalBytes: 512 * 1024,
		Pings:      50,
	}
}

// FastConfig uses ideal media, where simulated time stands still: it
// suits only the pipes row, which is measured on the real clock.
func FastConfig() Config {
	return Config{
		Profiles:   core.FastProfiles(),
		WriteSize:  16 * 1024,
		TotalBytes: 4 * 1024 * 1024,
		Pings:      500,
	}
}

// Row is one line of the table.
type Row struct {
	Name       string
	Throughput float64 // MBytes/sec
	Latency    float64 // milliseconds
	Err        error
}

// Result is the reproduced table.
type Result struct {
	Rows []Row
}

// Format renders the table in the paper's layout.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 - Performance\n")
	fmt.Fprintf(&b, "%-14s %11s %9s\n", "test", "throughput", "latency")
	fmt.Fprintf(&b, "%-14s %11s %9s\n", "", "MBytes/sec", "millisec")
	for _, row := range r.Rows {
		if row.Err != nil {
			fmt.Fprintf(&b, "%-14s %11s %9s (%v)\n", row.Name, "-", "-", row.Err)
			continue
		}
		fmt.Fprintf(&b, "%-14s %11.2f %9.3f\n", row.Name, row.Throughput, row.Latency)
	}
	return b.String()
}

// Path abstracts one measured communication path: a way to get an
// echoing connection and a sinking connection, and the clock that
// times them.
type Path struct {
	Name string
	// Clock is the clock the path runs on; nil means the real clock.
	Clock vclock.Clock
	// DialEcho returns a connection whose peer echoes everything.
	DialEcho func() (io.ReadWriteCloser, error)
	// DialSink returns a connection whose peer reads n bytes and
	// then writes one byte back.
	DialSink func(n int) (io.ReadWriteCloser, error)
}

// MeasureLatency times 1-byte round trips on the path's clock.
func MeasureLatency(p Path, pings int) (time.Duration, error) {
	conn, err := p.DialEcho()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 16)
	// Warm up (ARP, handshake timers).
	conn.Write(buf[:1])
	if _, err := io.ReadFull(conn, buf[:1]); err != nil {
		return 0, err
	}
	ck := vclock.Or(p.Clock)
	start := ck.Now()
	for range pings {
		if _, err := conn.Write(buf[:1]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(conn, buf[:1]); err != nil {
			return 0, err
		}
	}
	return ck.Since(start) / time.Duration(pings), nil
}

// MeasureThroughput times writeSize-byte writes of total bytes and the
// sink's final acknowledgement on the path's clock.
func MeasureThroughput(p Path, writeSize, total int) (float64, error) {
	conn, err := p.DialSink(total)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	payload := make([]byte, writeSize)
	ck := vclock.Or(p.Clock)
	start := ck.Now()
	sent := 0
	for sent < total {
		n := total - sent
		if n > writeSize {
			n = writeSize
		}
		if _, err := conn.Write(payload[:n]); err != nil {
			return 0, err
		}
		sent += n
	}
	// The sink answers one byte when it has read everything.
	one := make([]byte, 1)
	if _, err := io.ReadFull(conn, one); err != nil {
		return 0, err
	}
	el := ck.Since(start).Seconds()
	return float64(total) / el / 1e6, nil
}

// measure runs both measurements for a path.
func measure(p Path, cfg Config) Row {
	row := Row{Name: p.Name}
	tp, err := MeasureThroughput(p, cfg.WriteSize, cfg.TotalBytes)
	if err != nil {
		row.Err = err
		return row
	}
	lat, err := MeasureLatency(p, cfg.Pings)
	if err != nil {
		row.Err = err
		return row
	}
	row.Throughput = tp
	row.Latency = float64(lat.Nanoseconds()) / 1e6
	return row
}

// sinkHandler implements the bench sink service: the dial string's
// first delimited line carries the expected byte count.
func sinkHandler(nsp *ns.Namespace, conn *dialer.Conn) {
	// First read the ASCII count terminated by newline.
	hdr := make([]byte, 0, 32)
	one := make([]byte, 1)
	for len(hdr) < 31 {
		if _, err := conn.Read(one); err != nil {
			return
		}
		if one[0] == '\n' {
			break
		}
		hdr = append(hdr, one[0])
	}
	want, err := strconv.Atoi(string(hdr))
	if err != nil {
		return
	}
	buf := make([]byte, 64*1024)
	got := 0
	for got < want {
		n, err := conn.Read(buf)
		got += n
		if err != nil {
			return
		}
	}
	conn.Write([]byte{1})
}

func dialSink(nsp *ns.Namespace, dest string, n int) (io.ReadWriteCloser, error) {
	conn, err := dialer.Dial(nsp, dest)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(strconv.Itoa(n) + "\n")); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// pipePath builds the "pipes" row: two processes connected by a
// kernel pipe, which in this kernel is a pair of cross-connected
// streams (§2.4: "asynchronous communications channels such as pipes
// ... are implemented using streams").
func pipePath() Path {
	mkPipe := func() (*streams.Stream, *streams.Stream) {
		var a, b *streams.Stream
		a = streams.New(1<<20, func(blk *streams.Block) { b.DeviceUp(blk) })
		b = streams.New(1<<20, func(blk *streams.Block) { a.DeviceUp(blk) })
		return a, b
	}
	return Path{
		Name: "pipes",
		DialEcho: func() (io.ReadWriteCloser, error) {
			a, b := mkPipe()
			go func() { // echo process
				buf := make([]byte, 64*1024)
				for {
					n, err := b.Read(buf)
					if err != nil || n == 0 {
						return
					}
					if _, err := b.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
			return streamConn{a, b}, nil
		},
		DialSink: func(total int) (io.ReadWriteCloser, error) {
			a, b := mkPipe()
			go func() { // sink process: drain, then acknowledge
				buf := make([]byte, 64*1024)
				got := 0
				for got < total {
					n, err := b.Read(buf)
					got += n
					if err != nil {
						return
					}
				}
				b.Write([]byte{1})
			}()
			return streamConn{a, b}, nil
		},
	}
}

// streamConn adapts a stream pair end to io.ReadWriteCloser.
type streamConn struct {
	s    *streams.Stream
	peer *streams.Stream
}

func (c streamConn) Read(p []byte) (int, error)  { return c.s.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return c.s.Write(p) }
func (c streamConn) Close() error {
	c.s.Close()
	c.peer.Close()
	return nil
}

// netPath builds a row measured across the world between two machines.
func netPath(name string, from *core.Machine, echoDest, sinkDest string) Path {
	return Path{
		Name:  name,
		Clock: from.World.Clock(),
		DialEcho: func() (io.ReadWriteCloser, error) {
			return dialer.Dial(from.NS, echoDest)
		},
		DialSink: func(n int) (io.ReadWriteCloser, error) {
			return dialSink(from.NS, sinkDest, n)
		},
	}
}

// BuildWorld boots the paper world on the real clock with the bench
// services (sink on every medium) started, and returns every path of
// the table, pipes first.
func BuildWorld(cfg Config) (*core.World, []Path, error) {
	w, nets, err := buildWorld(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	return w, append([]Path{pipePath()}, nets...), nil
}

// buildWorld boots the paper world on ck with the bench services
// started, and returns it with the table's three network paths.
func buildWorld(cfg Config, ck vclock.Clock) (*core.World, []Path, error) {
	w, err := core.PaperWorld(cfg.Profiles, ck)
	if err != nil {
		return nil, nil, err
	}
	helix := w.Machine("helix")
	bootes := w.Machine("bootes")
	musca := w.Machine("musca")
	gnot := w.Machine("philw-gnot")

	// Sink services next to the existing echo services.
	for _, addr := range []string{"il!*!bench", "tcp!*!bench", "dk!*!bench"} {
		if _, err := helix.Serve(addr, sinkHandler); err != nil {
			w.Close()
			return nil, nil, err
		}
	}
	// Cyclone: echo and sink on the bootes end of the fiber; the
	// link carries one conversation at a time, so services attach
	// per measurement below via a shared announce.
	if _, err := bootes.Serve("cyc0!*!echo", func(nsp *ns.Namespace, conn *dialer.Conn) {
		buf := make([]byte, 64*1024)
		for {
			n, err := conn.Read(buf)
			if err != nil || n == 0 {
				return
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				return
			}
		}
	}); err != nil {
		w.Close()
		return nil, nil, err
	}

	paths := []Path{
		netPath("IL/ether", musca, "il!helix!echo", "il!helix!bench"),
		netPath("URP/Datakit", gnot, "dk!nj/astro/helix!echo", "dk!nj/astro/helix!bench"),
		cyclonePath(helix),
	}
	return w, paths, nil
}

// cyclonePath measures the fiber. The link is a single conversation,
// so the sink protocol runs over the same echoing peer: the sink role
// is emulated by counting echoed bytes — the wire carries the same
// traffic in both cases, so throughput is measured as one-way payload
// over a full-duplex link, like the Cyclone row of the paper (the
// boards are full duplex).
func cyclonePath(helix *core.Machine) Path {
	dial := func() (io.ReadWriteCloser, error) {
		return dialer.Dial(helix.NS, "cyc0!bootes!echo")
	}
	return Path{
		Name:     "Cyclone",
		Clock:    helix.World.Clock(),
		DialEcho: dial,
		DialSink: func(total int) (io.ReadWriteCloser, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			return newEchoSink(helix.World.Clock(), conn, total), nil
		},
	}
}

// echoSink adapts an echoing peer into the sink contract: a background
// process drains the echoes as they arrive (so neither direction of
// the link ever backs up) and the final "done" byte is delivered once
// all payload has come back.
type echoSink struct {
	conn io.ReadWriteCloser
	done *vclock.Mailbox[error]
}

func newEchoSink(ck vclock.Clock, conn io.ReadWriteCloser, want int) *echoSink {
	s := &echoSink{conn: conn, done: vclock.NewMailbox[error](ck, 1)}
	ck.Go(func() {
		buf := make([]byte, 64*1024)
		got := 0
		for got < want {
			n, err := conn.Read(buf)
			got += n
			if err != nil {
				s.done.Send(err)
				return
			}
		}
		s.done.Send(nil)
	})
	return s
}

func (s *echoSink) Write(p []byte) (int, error) { return s.conn.Write(p) }

// Read delivers the completion byte once the drain process has seen
// every echoed byte.
func (s *echoSink) Read(p []byte) (int, error) {
	if err, _ := s.done.Recv(); err != nil {
		return 0, err
	}
	p[0] = 1
	return 1, nil
}

func (s *echoSink) Close() error { return s.conn.Close() }

// Run reproduces the table: the pipes row on the real clock, then the
// network rows in a paper world on a fresh discrete-event clock.
func Run(cfg Config) Result {
	res := Result{Rows: []Row{measure(pipePath(), cfg)}}
	v := vclock.NewVirtual()
	v.Run(func() {
		w, paths, err := buildWorld(cfg, v)
		if err != nil {
			res.Rows = append(res.Rows, Row{Name: "world", Err: err})
			return
		}
		defer w.Close()
		for _, p := range paths {
			res.Rows = append(res.Rows, measure(p, cfg))
		}
	})
	return res
}
