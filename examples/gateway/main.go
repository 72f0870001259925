// Gateway: the §6.1 scenario. philw's gnot is a terminal with only a
// Datakit connection; importing /net from helix makes all of helix's
// networks appear locally, and TCP destinations become dialable
// through the gateway:
//
//	import -a helix /net
//	telnet ai.mit.edu
//
//	go run ./examples/gateway
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/mnt"
	"repro/internal/ns"
)

func main() {
	clients := flag.Int("clients", 0,
		"extra tenants: each imports helix's /lib/ndb through the gateway and reads the database; afterwards the per-connection bill is read from helix's /net/export/stats — through the import")
	flag.Parse()

	world, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	gnot := world.Machine("philw-gnot")

	lsNet := func(label string) {
		names := gnot.LsNet()
		sort.Strings(names)
		fmt.Printf("%s$ ls /net\n", label)
		for _, n := range names {
			fmt.Printf("  /net/%s\n", n)
		}
	}

	lsNet("philw-gnot")

	// TCP is unreachable: the terminal has no IP networks.
	if _, err := dialer.Dial(gnot.NS, "tcp!helix!echo"); err != nil {
		fmt.Printf("tcp!helix!echo before import: %v\n", err)
	}

	// import -a helix /net — over the Datakit, since that is all the
	// terminal has. The union places remote entries after local ones.
	// A /net import is a device tree and stays serial; a file tree
	// mounts with mnt.FileConfig().
	fmt.Println("philw-gnot$ import -a helix /net")
	if _, err := gnot.Import("dk!nj/astro/helix!exportfs", "/net", "/net", ns.MAFTER); err != nil {
		log.Fatal(err)
	}

	lsNet("philw-gnot")

	// "All the networks connected to helix, not just Datakit, are now
	// available in the terminal": dialing TCP now opens helix's clone
	// file through the import and the connection is relayed by the
	// gateway's kernel.
	conn, err := dialer.Dial(gnot.NS, "tcp!helix!echo")
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("tcp by way of the datakit"))
	buf := make([]byte, 128)
	n, _ := conn.Read(buf)
	fmt.Printf("echo over tcp through the gateway: %q\n", buf[:n])

	// Remote diagnosis (§6.1): the terminal has no TCP of its own, so
	// /net/tcp/stats resolves to HELIX's stats file through the
	// import — every line below crossed the Datakit as a 9P Tread.
	// The segment counters include the echo we just ran.
	b, err := gnot.NS.ReadFile("/net/tcp/stats")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("philw-gnot$ cat /net/tcp/stats   # helix's, over the import\n")
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}

	// And the terminal's own mount driver accounts for the RPCs that
	// import carried: /net/mnt resolves locally (the union places the
	// terminal's entries first).
	b, err = gnot.NS.ReadFile("/net/mnt/stats")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("philw-gnot$ cat /net/mnt/stats   # the import's own RPC bill\n")
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}

	// -clients N: the multi-tenant half of the story. N more tenants
	// attach to the same gateway server, each over its own connection,
	// and read the same file; the first fill populates the shared
	// cache and every later tenant rides it. The gateway's stats file
	// itemizes each connection — and since helix's /net/export/stats
	// sits inside the imported /net, the bill itself arrives over the
	// Datakit as 9P reads.
	if *clients > 0 {
		fmt.Printf("philw-gnot$ for i in `seq %d`; do import helix /lib/ndb /n/c$i && cat /n/c$i/local; done >/dev/null\n", *clients)
		// The imports stay mounted while the bill is read, so every
		// tenant shows as an open connection with its own line; the
		// world's shutdown closes them.
		for i := 0; i < *clients; i++ {
			mp := fmt.Sprintf("/n/c%d", i)
			if _, err := gnot.ImportConfig("dk!nj/astro/helix!exportfs", "/lib/ndb", mp, ns.MREPL, mnt.FileConfig()); err != nil {
				log.Fatal(err)
			}
			if _, err := gnot.NS.ReadFile(mp + "/local"); err != nil {
				log.Fatal(err)
			}
		}
		b, err = gnot.NS.ReadFile("/net/export/stats")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("philw-gnot$ cat /net/export/stats   # helix's per-connection bill, over the import\n")
		for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
}
