// Home: the paper's slow-link story (§1): "9600 baud serial lines
// provide slow links to users at home. ... At home or when connected
// over a slow network, users tend to do most work on the CPU server
// to minimize traffic on the slow links."
//
// A home terminal hangs off helix over a serial line (/dev/eia1). The
// serial wire carries bytes, not messages, so the 9P mount uses the
// §2.1 marshaling adapter. The user then works "on the CPU server":
// instead of pulling a big file across the 56k line, the remote end
// computes over it and ships back only the answer. The world runs on
// the virtual clock, so both times are exact simulated seconds.
//
//	go run ./examples/home
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/netmsg"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/uart"
	"repro/internal/vclock"
)

// endRWC adapts a UART end to io.ReadWriteCloser for the 9P adapter.
type endRWC struct{ e *uart.End }

func (w endRWC) Read(p []byte) (int, error) {
	n, err := w.e.Read(p)
	if n == 0 && err == nil {
		return 0, io.EOF
	}
	return n, err
}
func (w endRWC) Write(p []byte) (int, error) { return w.e.Write(p) }
func (w endRWC) Close() error                { return w.e.Close() }

func main() {
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(os.Stdout, ck) }); err != nil {
		log.Fatal(err)
	}
}

// run boots the paper's world on ck, hangs a home machine off helix's
// serial line with the stream modules mods pushed on both ends, and
// times a file pulled home against the same work done on helix.
func run(w io.Writer, ck vclock.Clock, mods ...string) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()
	helix := world.Machine("helix")

	// The phone line: 56k at home.
	line := uart.NewLine(ck)
	defer line.Close()
	homeEnd, cpuEnd := line.Ends()
	homeEnd.SetBaud(57600)
	cpuEnd.SetBaud(57600)
	for _, m := range mods {
		if err := homeEnd.Stream().WriteCtl(netmsg.Push(m)); err != nil {
			return err
		}
		if err := cpuEnd.Stream().WriteCtl(netmsg.Push(m)); err != nil {
			return err
		}
	}

	// helix answers the modem: it exports its name space over the
	// serial byte stream.
	if err := helix.AttachUART(1, cpuEnd); err != nil {
		return err
	}
	ck.Go(func() { exportfs.Serve(ninep.NewStreamConn(endRWC{cpuEnd}), helix.NS, "/", ck) })

	// The home machine: not in the world at all, just a name space
	// and the serial port.
	home := ns.New("philw", ramfs.New("philw").Root())
	cfg := mnt.Config{Client: ninep.ClientConfig{Clock: ck}}
	cl, err := exportfs.ImportConfig(home, ninep.NewStreamConn(endRWC{homeEnd}), "", "/n/helix", ns.MREPL, cfg)
	if err != nil {
		return err
	}
	defer cl.Close()

	// Put a day's work on the CPU server (as if it were always there).
	text := strings.Repeat("all work and no play makes plan 9 a dull system\n", 400)
	if err := home.WriteFile("/n/helix/tmp/novel.txt", []byte(text), 0664); err != nil {
		return err
	}

	// The wrong way at 56k: pull the whole file home.
	start := ck.Now()
	b, err := home.ReadFile("/n/helix/tmp/novel.txt")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pulling %d bytes over the serial line: %v\n", len(b), ck.Since(start))

	// The right way: do the work on the CPU server and move only the
	// result. Here the "computation" is wc -l, run where the data is.
	start = ck.Now()
	data, err := helix.NS.ReadFile("/tmp/novel.txt") // on helix, local to the data
	if err != nil {
		return err
	}
	lines := strings.Count(string(data), "\n")
	helix.NS.WriteFile("/tmp/novel.count", []byte(fmt.Sprint(lines)), 0664)
	cnt, err := home.ReadFile("/n/helix/tmp/novel.count")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "running wc on the CPU server and fetching the count: %v (%s lines)\n", ck.Since(start), cnt)
	fmt.Fprintf(w, "the slow link moved %d bytes instead of %d\n", len(cnt), len(b))
	return nil
}
