// Command 9ls walks a machine's name space in the paper world and
// lists or prints files — a small ls/cat over the composed view,
// useful for poking at the device trees:
//
//	9ls -on helix /net
//	9ls -on helix /net/tcp
//	9ls -on helix -cat /net/cs? (use -cat for file contents)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

func main() {
	machine := flag.String("on", "helix", "machine whose name space to use")
	cat := flag.Bool("cat", false, "print file contents instead of listing")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: 9ls [-on machine] [-cat] path...")
		os.Exit(2)
	}
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		return run(os.Stdout, ck, *machine, *cat, flag.Args())
	}); err != nil {
		fmt.Fprintln(os.Stderr, "9ls:", err)
		os.Exit(1)
	}
}

// run lists (or with cat, prints) each path in machine's name space,
// in the paper's world on ck. A path that fails is reported on stderr
// and skipped.
func run(w io.Writer, ck vclock.Clock, machine string, cat bool, paths []string) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()
	m := world.Machine(machine)
	if m == nil {
		return fmt.Errorf("no machine %q", machine)
	}
	for _, path := range paths {
		if cat {
			b, err := m.NS.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
				continue
			}
			w.Write(b)
			continue
		}
		d, err := m.NS.Stat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
			continue
		}
		if !d.IsDir() {
			printEntry(w, d)
			continue
		}
		ents, err := m.NS.ReadDir(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
			continue
		}
		for _, e := range ents {
			printEntry(w, e)
		}
	}
	return nil
}

func printEntry(w io.Writer, d vfs.Dir) {
	t := "-"
	if d.IsDir() {
		t = "d"
	}
	fmt.Fprintf(w, "%s%s %-8s %-8s %8d %s\n", t, permString(d.Mode), d.Uid, d.Gid, d.Length, d.Name)
}

func permString(m uint32) string {
	const rwx = "rwxrwxrwx"
	out := []byte("---------")
	for i := range 9 {
		if m&(1<<uint(8-i)) != 0 {
			out[i] = rwx[i]
		}
	}
	return string(out)
}
