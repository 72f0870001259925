// Quickstart: boot the paper's network, dial the echo service over
// the network of CS's choice, and exchange a message — the minimal
// end-to-end use of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/vclock"
)

func main() {
	// The simulation runs on a discrete-event clock: Simulate hands
	// run a fresh one, and run is its first process.
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(os.Stdout, ck) }); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, ck vclock.Clock) error {
	// A World holds the shared media and database; PaperWorld boots
	// the topology from the paper (file server, CPU servers, a
	// Datakit-only terminal, DNS) on the clock, with the media
	// calibrated to the paper's hardware.
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()

	musca := world.Machine("musca")

	// The special network name "net" lets the connection server pick
	// any network in common with the destination (§5.1). Here musca
	// and helix share both IL/Ethernet and Datakit; CS prefers IL.
	conn, err := dialer.Dial(musca.NS, "net!helix!echo")
	if err != nil {
		return err
	}
	defer conn.Close()

	fmt.Fprintf(w, "dialed helix; connection directory %s\n", conn.Dir)
	fmt.Fprintf(w, "local  %s\n", conn.LocalAddr(musca.NS))
	fmt.Fprintf(w, "remote %s\n", conn.RemoteAddr(musca.NS))

	msg := "hello from musca"
	if _, err := conn.Write([]byte(msg)); err != nil {
		return err
	}
	buf := make([]byte, 128)
	n, err := conn.Read(buf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "echoed: %q\n", buf[:n])

	// The same connection is visible as files, §2.3 style.
	status, _ := musca.NS.ReadFile(conn.Dir + "/status")
	fmt.Fprintf(w, "status: %s", status)
	return nil
}
