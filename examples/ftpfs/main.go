// Ftpfs: §6.2 — "our command, ftpfs, dials the FTP port of a remote
// system, prompts for login and password, sets image mode, and mounts
// the remote file system onto /n/ftp."
//
// bootes runs the FTP service; musca mounts it and uses ordinary file
// operations — plus the cache that "reduces traffic".
//
//	go run ./examples/ftpfs
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/ftp"
	"repro/internal/vclock"
)

func main() {
	if err := vclock.Simulate(func(ck vclock.Clock) error { return run(os.Stdout, ck) }); err != nil {
		log.Fatal(err)
	}
}

// run boots the paper's world on ck, serves FTP from bootes and works
// through musca's ftpfs mount.
func run(w io.Writer, ck vclock.Clock) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()

	bootes := world.Machine("bootes")
	musca := world.Machine("musca")

	// The remote system's FTP service over the simulated TCP.
	bootes.Root.WriteFile("pub/README", []byte("Plan 9 distribution\n"), 0664)
	bootes.Root.WriteFile("pub/sys/src/9/il.c", []byte("/* 847 lines */\n"), 0664)
	if _, err := bootes.ServeFTP("tcp!*!ftp", "/", ftp.ServerConfig{User: "glenda", Pass: "rabbit"}); err != nil {
		return err
	}

	// ftpfs: dial, log in, mount on /n/ftp.
	if _, err := musca.MountFTP("tcp!bootes!ftp", "glenda", "rabbit", "/n/ftp"); err != nil {
		return err
	}

	fmt.Fprintln(w, "musca$ ls /n/ftp/pub")
	ents, err := musca.NS.ReadDir("/n/ftp/pub")
	if err != nil {
		return err
	}
	for _, e := range ents {
		kind := "file"
		if e.IsDir() {
			kind = "dir "
		}
		fmt.Fprintf(w, "  %s %-10s %d bytes\n", kind, e.Name, e.Length)
	}

	b, err := musca.NS.ReadFile("/n/ftp/pub/README")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "musca$ cat /n/ftp/pub/README\n  %s", b)

	// Writing through the mount STORs on close.
	if err := musca.NS.WriteFile("/n/ftp/pub/notes", []byte("fetched with ftpfs\n"), 0664); err != nil {
		return err
	}
	back, _ := bootes.Root.ReadFile("pub/notes")
	fmt.Fprintf(w, "stored on the server: %q\n", back)
	return nil
}
