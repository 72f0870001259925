// Ndbtour: the network database and connection server of §4 — the
// attribute walk (system, then subnetwork, then network), service
// ports, meta-names, and the DNS path.
//
//	go run ./examples/ndbtour
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/vfs"
)

func main() {
	world, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	db := world.DB()
	helix := world.Machine("helix")

	// Direct database queries.
	fmt.Println("# ndb queries")
	if e, ok := db.QueryOne("sys", "helix"); ok {
		dom, _ := e.Get("dom")
		ip, _ := e.Get("ip")
		dk, _ := e.Get("dk")
		fmt.Printf("sys=helix: dom=%s ip=%s dk=%s\n", dom, ip, dk)
	}
	// The most-closely-associated walk: helix has no auth attribute
	// of its own; it inherits the network's.
	if v, ok := db.IPInfo("helix", "auth"); ok {
		fmt.Printf("auth for helix (from the network entry): %s\n", v)
	}
	if v, ok := db.IPInfo("helix", "fs"); ok {
		fmt.Printf("fs for helix: %s\n", v)
	}
	// Service ports.
	if p, ok := db.ServicePort("il", "9fs"); ok {
		fmt.Printf("il!...!9fs uses port %s\n", p)
	}

	// csquery-style translations through /net/cs.
	fmt.Println("\n# /net/cs translations (ndb/csquery)")
	for _, q := range []string{"net!helix!9fs", "net!$auth!rexauth", "tcp!bootes!ftp"} {
		fmt.Printf("> %s\n", q)
		lines, err := helix.NdbQuery(q)
		if err != nil {
			fmt.Println("!", err)
			continue
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	}

	// The DNS path: /net/dns answers recursive queries.
	fmt.Println("\n# /net/dns")
	fd, err := helix.NS.Open("/net/dns", vfs.ORDWR)
	if err != nil {
		log.Fatal(err)
	}
	defer fd.Close()
	for _, q := range []string{"musca.research.bell-labs.com ip", "fs.research.bell-labs.com ip"} {
		fmt.Printf("> %s\n", q)
		if _, err := fd.WriteString(q); err != nil {
			fmt.Println("!", err)
			continue
		}
		buf := make([]byte, 256)
		for {
			n, _ := fd.ReadAt(buf, 0)
			if n == 0 {
				break
			}
			fmt.Print(string(buf[:n]))
		}
	}
}
