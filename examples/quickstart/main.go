// Quickstart: boot the paper's network, dial the echo service over
// the network of CS's choice, and exchange a message — the minimal
// end-to-end use of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dialer"
)

func main() {
	// A World holds the shared media and database; PaperWorld boots
	// the topology from the paper (file server, CPU servers, a
	// Datakit-only terminal, DNS).
	world, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	musca := world.Machine("musca")

	// The special network name "net" lets the connection server pick
	// any network in common with the destination (§5.1). Here musca
	// and helix share both IL/Ethernet and Datakit; CS prefers IL.
	conn, err := dialer.Dial(musca.NS, "net!helix!echo")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	fmt.Printf("dialed helix; connection directory %s\n", conn.Dir)
	fmt.Printf("local  %s\n", conn.LocalAddr(musca.NS))
	fmt.Printf("remote %s\n", conn.RemoteAddr(musca.NS))

	msg := "hello from musca"
	if _, err := conn.Write([]byte(msg)); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 128)
	n, err := conn.Read(buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("echoed: %q\n", buf[:n])

	// The same connection is visible as files, §2.3 style.
	status, _ := musca.NS.ReadFile(conn.Dir + "/status")
	fmt.Printf("status: %s", status)
}
