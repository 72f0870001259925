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
	"os"

	"repro/internal/core"
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
	w, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "9ls:", err)
		os.Exit(1)
	}
	defer w.Close()
	m := w.Machine(*machine)
	if m == nil {
		fmt.Fprintf(os.Stderr, "9ls: no machine %q\n", *machine)
		os.Exit(1)
	}
	for _, path := range flag.Args() {
		if *cat {
			b, err := m.NS.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
				continue
			}
			os.Stdout.Write(b)
			continue
		}
		d, err := m.NS.Stat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
			continue
		}
		if !d.IsDir() {
			printEntry(d)
			continue
		}
		ents, err := m.NS.ReadDir(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "9ls: %s: %v\n", path, err)
			continue
		}
		for _, e := range ents {
			printEntry(e)
		}
	}
}

func printEntry(d vfs.Dir) {
	t := "-"
	if d.IsDir() {
		t = "d"
	}
	fmt.Printf("%s%s %-8s %-8s %8d %s\n", t, permString(d.Mode), d.Uid, d.Gid, d.Length, d.Name)
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
