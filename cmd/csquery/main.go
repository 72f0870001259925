// Command csquery reproduces the paper's ndb/csquery sessions (§4.2):
// it boots the paper's world, then prompts for symbolic names to write
// to /net/cs and prints the replies.
//
//	% csquery -on helix
//	> net!helix!9fs
//	/net/il/clone 135.104.9.31!17008
//	/net/dk/clone nj/astro/helix!9fs
//	> net!$auth!rexauth
//	/net/il/clone 135.104.9.34!17021
//	/net/dk/clone nj/astro/p9auth!rexauth
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	machine := flag.String("on", "helix", "machine whose connection server to query")
	flag.Parse()

	w, err := core.PaperWorld(core.FastProfiles(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csquery:", err)
		os.Exit(1)
	}
	defer w.Close()
	m := w.Machine(*machine)
	if m == nil {
		fmt.Fprintf(os.Stderr, "csquery: no machine %q\n", *machine)
		os.Exit(1)
	}

	// Non-interactive mode: translate the arguments.
	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			run(m, q)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		q := sc.Text()
		if q != "" {
			run(m, q)
		}
		fmt.Print("> ")
	}
	fmt.Println()
}

func run(m *core.Machine, q string) {
	lines, err := m.NdbQuery(q)
	if err != nil {
		fmt.Println("!", err)
		return
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}
