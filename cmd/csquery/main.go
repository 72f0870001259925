// Command csquery reproduces the paper's ndb/csquery sessions (§4.2):
// it boots the paper's world on the virtual clock, then prompts for
// symbolic names to write to /net/cs and prints the replies. Our
// database also lists 9fs on TCP, so helix answers one line more than
// the paper's:
//
//	% csquery -on helix
//	> net!helix!9fs
//	/net/il/clone 135.104.9.31!17008
//	/net/tcp/clone 135.104.9.31!564
//	/net/dk/clone nj/astro/helix!9fs
//	> net!$auth!rexauth
//	/net/il/clone 135.104.9.34!17021
//	/net/dk/clone nj/astro/p9auth!rexauth
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/vclock"
)

func main() {
	machine := flag.String("on", "helix", "machine whose connection server to query")
	flag.Parse()
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		return run(os.Stdout, ck, *machine, flag.Args(), os.Stdin)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "csquery:", err)
		os.Exit(1)
	}
}

// run boots the paper's world on ck and translates each query through
// machine's /net/cs: the queries given, or else each line of in after
// a "> " prompt. Simulated time stands still while it waits for a line.
func run(w io.Writer, ck vclock.Clock, machine string, queries []string, in io.Reader) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()
	m := world.Machine(machine)
	if m == nil {
		return fmt.Errorf("no machine %q", machine)
	}

	// Non-interactive mode: translate the arguments.
	if len(queries) > 0 {
		for _, q := range queries {
			query(w, m, q)
		}
		return nil
	}

	sc := bufio.NewScanner(in)
	fmt.Fprint(w, "> ")
	for sc.Scan() {
		if q := sc.Text(); q != "" {
			query(w, m, q)
		}
		fmt.Fprint(w, "> ")
	}
	fmt.Fprintln(w)
	return sc.Err()
}

func query(w io.Writer, m *core.Machine, q string) {
	lines, err := m.NdbQuery(q)
	if err != nil {
		fmt.Fprintln(w, "!", err)
		return
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
