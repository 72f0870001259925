// Ndbtour: the network database and connection server of §4 — the
// attribute walk (system, then subnetwork, then network), service
// ports, meta-names, and the DNS path.
//
//	go run ./examples/ndbtour
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

func main() {
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(os.Stdout, ck) }); err != nil {
		log.Fatal(err)
	}
}

// run boots the paper's world on ck and tours its database, helix's
// connection server and its DNS.
func run(w io.Writer, ck vclock.Clock) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()
	db := world.DB()
	helix := world.Machine("helix")

	// Direct database queries.
	fmt.Fprintln(w, "# ndb queries")
	if e, ok := db.QueryOne("sys", "helix"); ok {
		dom, _ := e.Get("dom")
		ip, _ := e.Get("ip")
		dk, _ := e.Get("dk")
		fmt.Fprintf(w, "sys=helix: dom=%s ip=%s dk=%s\n", dom, ip, dk)
	}
	// The most-closely-associated walk: helix has no auth attribute
	// of its own; it inherits the network's.
	if v, ok := db.IPInfo("helix", "auth"); ok {
		fmt.Fprintf(w, "auth for helix (from the network entry): %s\n", v)
	}
	if v, ok := db.IPInfo("helix", "fs"); ok {
		fmt.Fprintf(w, "fs for helix: %s\n", v)
	}
	// Service ports.
	if p, ok := db.ServicePort("il", "9fs"); ok {
		fmt.Fprintf(w, "il!...!9fs uses port %s\n", p)
	}

	// csquery-style translations through /net/cs.
	fmt.Fprintln(w, "\n# /net/cs translations (ndb/csquery)")
	for _, q := range []string{"net!helix!9fs", "net!$auth!rexauth", "tcp!bootes!ftp"} {
		fmt.Fprintf(w, "> %s\n", q)
		lines, err := helix.NdbQuery(q)
		if err != nil {
			fmt.Fprintln(w, "!", err)
			continue
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}

	// The DNS path: /net/dns answers recursive queries.
	fmt.Fprintln(w, "\n# /net/dns")
	fd, err := helix.NS.Open("/net/dns", vfs.ORDWR)
	if err != nil {
		return err
	}
	defer fd.Close()
	for _, q := range []string{"musca.research.bell-labs.com ip", "fs.research.bell-labs.com ip"} {
		fmt.Fprintf(w, "> %s\n", q)
		if _, err := fd.WriteString(q); err != nil {
			fmt.Fprintln(w, "!", err)
			continue
		}
		buf := make([]byte, 256)
		for {
			n, _ := fd.ReadAt(buf, 0)
			if n == 0 {
				break
			}
			w.Write(buf[:n])
		}
	}
	return nil
}
