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
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vclock"
)

func main() {
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(os.Stdout, ck) }); err != nil {
		log.Fatal(err)
	}
}

// run boots the paper's world on ck and runs one cpu session from
// musca on helix.
func run(w io.Writer, ck vclock.Clock) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()

	helix := world.Machine("helix")
	musca := world.Machine("musca")

	// The CPU server's listener: each call is a remote session whose
	// far end serves the terminal's name space via 9P.
	done := vclock.NewMailbox[error](ck, 1)
	if _, err := helix.Serve("il!*!cpu", func(nsp *ns.Namespace, conn *dialer.Conn) {
		done.Send(session(ck, nsp, conn))
	}); err != nil {
		return err
	}

	// The terminal: put some work in the window's name space, dial
	// cpu, and serve the name space across the call.
	if err := musca.NS.WriteFile("/tmp/job", []byte("compile the chess endgames"), 0664); err != nil {
		return err
	}
	conn, err := dialer.Dial(musca.NS, "il!helix!cpu")
	if err != nil {
		return err
	}
	defer conn.Close()
	ck.Go(func() { exportfs.Serve(ninep.NewDelimConn(conn), musca.NS, "/", ck) })

	if err, _ := done.Recv(); err != nil {
		return err
	}
	out, err := musca.NS.ReadFile("/tmp/job.out")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "terminal submitted: compile the chess endgames\n")
	fmt.Fprintf(w, "terminal received:  %s\n", out)
	return nil
}

// session is the remote half of a cpu call on helix: the terminal end
// is an exportfs server, mounted at /mnt/term in the session's name
// space.
func session(ck vclock.Clock, nsp *ns.Namespace, conn *dialer.Conn) error {
	cfg := mnt.Config{Client: ninep.ClientConfig{Clock: ck}}
	root, cl, err := mnt.MountConfig(ninep.NewDelimConn(conn), nsp.User(), "", cfg)
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	defer cl.Close()
	if err := nsp.MountNode(root, "/mnt/term", ns.MREPL); err != nil {
		return err
	}
	// The "remote process": read the terminal's file, compute,
	// write the result back into the terminal's /tmp.
	b, err := nsp.ReadFile("/mnt/term/tmp/job")
	if err != nil {
		return err
	}
	result := strings.ToUpper(string(b)) + " (processed on helix)"
	return nsp.WriteFile("/mnt/term/tmp/job.out", []byte(result), 0664)
}
