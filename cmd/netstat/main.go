// Command netstat is the paper's diagnostic story in one program:
// "every aspect of a network is a file", so inspecting a machine's
// networks is reading the stats files out of its /net — and inspecting
// a REMOTE machine's networks is the same reads through an import of
// its /net (§6.1).
//
//	netstat                   every stats file on helix, after a little traffic
//	netstat -m bootes         another machine
//	netstat -json             machine-readable snapshot (obs.ParseStats per file)
//	netstat -import           read helix's /net from philw-gnot over the Datakit
//	netstat -quiet            no warm-up traffic; idle counters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/ns"
	"repro/internal/obs"
	"repro/internal/vclock"
)

func main() {
	machine := flag.String("m", "helix", "machine whose /net to read")
	jsonOut := flag.Bool("json", false, "emit a JSON snapshot instead of the raw files")
	imported := flag.Bool("import", false,
		"read the machine's /net from philw-gnot through a Datakit import (§6.1)")
	quiet := flag.Bool("quiet", false, "skip the warm-up traffic")
	flag.Parse()
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		return run(os.Stdout, ck, *machine, *jsonOut, *imported, *quiet)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "netstat:", err)
		os.Exit(1)
	}
}

// run boots the paper's world on ck and prints every stats file in
// machine's /net, after a little traffic unless quiet: read locally, or
// with imported from philw-gnot through a Datakit import.
func run(w io.Writer, ck vclock.Clock, machine string, jsonOut, imported, quiet bool) error {
	world, err := core.PaperWorld(core.CalibratedProfiles(), ck)
	if err != nil {
		return err
	}
	defer world.Close()

	m := world.Machine(machine)
	if m == nil {
		return fmt.Errorf("no machine %q", machine)
	}

	if !quiet {
		warmUp(m)
	}

	// The reading name space: the machine's own, or philw-gnot's
	// after importing the machine's /net over the Datakit. In the
	// import case every read below is a 9P RPC relayed by exportfs —
	// remote diagnosis with no protocol beyond the file system.
	nsp := m.NS
	prefix := "/net"
	if imported {
		gnot := world.Machine("philw-gnot")
		dest := "dk!nj/astro/" + machine + "!exportfs"
		if _, err := gnot.Import(dest, "/net", "/n/remote/net", ns.MREPL); err != nil {
			return fmt.Errorf("import: %w", err)
		}
		nsp, prefix = gnot.NS, "/n/remote/net"
	}
	files := statsFiles(nsp, prefix)

	if jsonOut {
		snap := map[string]map[string]int64{}
		for _, f := range files {
			b, err := nsp.ReadFile(f.path)
			if err != nil {
				continue
			}
			snap[f.label] = obs.ParseStats(string(b))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"machine": machine, "stats": snap})
	}

	for _, f := range files {
		b, err := nsp.ReadFile(f.path)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", f.label)
		for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
			fmt.Fprintln(w, strings.TrimRight("  "+line, " "))
		}
	}
	return nil
}

type statsFile struct{ label, path string }

// statsFiles walks /net for everything that renders counters: the
// per-protocol device stats files, the machine-wide ipstats and
// mount-driver stats, and each conversation's stats where a device
// serves one (the ether interfaces of Figure 1).
func statsFiles(nsp *ns.Namespace, prefix string) []statsFile {
	var out []statsFile
	if _, err := nsp.Stat(prefix + "/ipstats"); err == nil {
		out = append(out, statsFile{"/net/ipstats", prefix + "/ipstats"})
	}
	ents, err := nsp.ReadDir(prefix)
	if err != nil {
		return out
	}
	var names []string
	seen := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() && !seen[e.Name] {
			seen[e.Name] = true
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := prefix + "/" + name
		if _, err := nsp.Stat(dir + "/stats"); err == nil {
			out = append(out, statsFile{"/net/" + name + "/stats", dir + "/stats"})
		}
		subs, err := nsp.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, s := range subs {
			if !s.IsDir() {
				continue
			}
			conv := dir + "/" + s.Name
			if _, err := nsp.Stat(conv + "/stats"); err == nil {
				out = append(out, statsFile{
					"/net/" + name + "/" + s.Name + "/stats", conv + "/stats"})
			}
		}
	}
	return out
}

// warmUp pushes a little traffic through the machine's networks so
// the snapshot shows live counters: one TCP and one IL echo exchange
// against helix's echo service, when the machine can reach it.
func warmUp(m *core.Machine) {
	for _, net := range []string{"tcp", "il"} {
		conn, err := dialer.Dial(m.NS, net+"!helix!echo")
		if err != nil {
			continue
		}
		conn.Write([]byte("netstat warm-up over " + net))
		buf := make([]byte, 64)
		conn.Read(buf)
		conn.Close()
	}
}
