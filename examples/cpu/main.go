// Cpu: the shape of the paper's cpu command (§6): "rather than
// emulating a terminal session across the network, cpu creates a
// process on the remote machine whose name space is an analogue of the
// window in which it was invoked. Exportfs ... is used by the cpu
// command to serve the files in the terminal's name space when they
// are accessed from the cpu server."
//
// Here musca plays the terminal and helix the CPU server. The terminal
// dials the cpu service and then serves its own name space over the
// same connection with exportfs; the remote "process" (a goroutine in
// a cloned name space on helix) mounts it at /mnt/term, reads the
// terminal's files, and writes its output back into the terminal's
// /tmp — exactly how cpu makes the window's files visible remotely.
//
//	go run ./examples/cpu
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
)

func main() {
	world, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	helix := world.Machine("helix")
	musca := world.Machine("musca")

	// The CPU server's listener: each call is a remote session whose
	// far end serves the terminal's name space via 9P.
	done := make(chan string, 1)
	if _, err := helix.Serve("il!*!cpu", func(nsp *ns.Namespace, conn *dialer.Conn) {
		// The terminal end is an exportfs server: mount it.
		root, cl, err := mnt.Mount(ninep.NewDelimConn(conn), nsp.User(), "")
		if err != nil {
			done <- "mount: " + err.Error()
			return
		}
		defer cl.Close()
		if err := nsp.MountNode(root, "/mnt/term", ns.MREPL); err != nil {
			done <- err.Error()
			return
		}
		// The "remote process": read the terminal's file, compute,
		// write the result back into the terminal's /tmp.
		b, err := nsp.ReadFile("/mnt/term/tmp/job")
		if err != nil {
			done <- err.Error()
			return
		}
		result := strings.ToUpper(string(b)) + " (processed on " + "helix)"
		if err := nsp.WriteFile("/mnt/term/tmp/job.out", []byte(result), 0664); err != nil {
			done <- err.Error()
			return
		}
		done <- "ok"
	}); err != nil {
		log.Fatal(err)
	}

	// The terminal: put some work in the window's name space, dial
	// cpu, and serve the name space across the call.
	if err := musca.NS.WriteFile("/tmp/job", []byte("compile the chess endgames"), 0664); err != nil {
		log.Fatal(err)
	}
	conn, err := dialer.Dial(musca.NS, "il!helix!cpu")
	if err != nil {
		log.Fatal(err)
	}
	go exportfs.Serve(ninep.NewDelimConn(conn), musca.NS, "/")

	if msg := <-done; msg != "ok" {
		log.Fatal(msg)
	}
	out, err := musca.NS.ReadFile("/tmp/job.out")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("terminal submitted: compile the chess endgames\n")
	fmt.Printf("terminal received:  %s\n", out)
	conn.Close()
}
