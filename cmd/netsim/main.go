// Command netsim boots the paper's world and reproduces its figures
// and transcripts:
//
//	netsim -figure1    print the ether device file tree of Figure 1
//	netsim -transcript run the §2.3 TCP transcript (cd /net/tcp/2; ls -l; cat local remote status)
//	netsim -import     run the §6.1 import transcript (ls /net before/after)
//	netsim -table1     measure Table 1 on calibrated media (see also bench's *.table1_* probes)
//	netsim -chaos      torture IL, TCP, URP, 9P and Cyclone across impaired media
//	netsim -virtual    boot a 1000-machine Datakit world on the discrete-event
//	                   clock and run a storm over it (see -machines, -simtime).
//	                   internal/storm's one harness boots the same world for
//	                   all three scenarios; a flag picks the scenario:
//	                     (none)     the registry storm: every machine staggers
//	                                in and repeatedly calls one echo service
//	                     -gateway   every machine repeatedly imports one
//	                                exporter's tree through the multi-tenant
//	                                gateway and reads a shared file; reports
//	                                the shared-cache bill
//	                     -registry  no stagger: every machine dials the
//	                                registry by symbolic name at t=0, several
//	                                dialers apiece; reports the merged /net/cs
//	                                books (hit rates, negative cache,
//	                                query-latency p50/p99)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/mnt"
	"repro/internal/netmsg"
	"repro/internal/ns"
	"repro/internal/storm"
	"repro/internal/table1"
	"repro/internal/vfs"
)

func main() {
	figure1 := flag.Bool("figure1", false, "print the Figure 1 ether file tree")
	transcript := flag.Bool("transcript", false, "run the §2.3 TCP connection transcript")
	imp := flag.Bool("import", false, "run the §6.1 import transcript")
	table := flag.Bool("table1", false, "reproduce Table 1 on calibrated media")
	fast := flag.Bool("fast", false, "with -table1: ideal media (code-path cost only)")
	jsonOut := flag.Bool("json", false, "with -table1: emit a JSON snapshot (rows + allocator + mount-driver stats)")
	chaos := flag.Bool("chaos", false, "torture every protocol across impaired media")
	seed := flag.Int64("seed", 1, "with -chaos/-virtual: impairment seed (failures replay exactly)")
	msgs := flag.Int("msgs", 40, "with -chaos: messages per direction")
	seeds := flag.Int("seeds", 1, "with -chaos: sweep this many consecutive seeds")
	mods := flag.String("mods", "", "with -chaos: comma-separated line disciplines pushed on both ends (e.g. \"compress,batch 1024 2ms\")")
	virtual := flag.Bool("virtual", false, "run on the discrete-event clock; alone, boots the -machines Datakit world and runs the registry storm")
	gateway := flag.Bool("gateway", false, "with -virtual: run the gateway storm — every machine imports one exporter through the multi-tenant server")
	registry := flag.Bool("registry", false, "with -virtual: run the t=0 dial storm — every machine dials the registry by name through /net/cs at once")
	nmach := flag.Int("machines", 1000, "with -virtual: machines to boot besides the registry")
	simtime := flag.Duration("simtime", 75*time.Second, "with -virtual: simulated duration of the registry storm")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Parse()

	if !*figure1 && !*transcript && !*imp && !*table && !*chaos && !*virtual {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "netsim:", err)
			os.Exit(1)
		}
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
	}
	// The profile writers run on every exit path below, so the run
	// modes defer through this instead of calling os.Exit directly.
	exitCode := 0
	defer func() {
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC()
				pprof.Lookup("heap").WriteTo(f, 0)
				f.Close()
			}
		}
		if *blockprofile != "" {
			f, err := os.Create(*blockprofile)
			if err == nil {
				pprof.Lookup("block").WriteTo(f, 0)
				f.Close()
			}
		}
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()
	if *chaos {
		if failed := runChaos(*seed, *msgs, *seeds, *virtual, *mods); failed > 0 {
			fmt.Fprintf(os.Stderr, "netsim: chaos: %d scenarios failed\n", failed)
			exitCode = 1
		}
		return
	}
	if *virtual {
		cfg := storm.Config{
			Machines: *nmach,
			Sim:      *simtime,
			Seed:     *seed,
			Virtual:  true,
		}
		// One harness, three scenarios: the flag picks which.
		var res fmt.Stringer
		var err error
		switch {
		case *gateway:
			res, err = storm.RunGateway(cfg)
		case *registry:
			res, err = storm.RunRegistry(cfg)
		default:
			res, err = storm.Run(cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "netsim:", err)
			exitCode = 1
			return
		}
		fmt.Println(res)
		return
	}
	if *table {
		cfg := table1.DefaultConfig()
		if *fast {
			cfg = table1.FastConfig()
		}
		res := table1.Run(cfg)
		if *jsonOut {
			// Machine-readable: the measured rows plus the
			// process-wide observability counters the run left
			// behind (allocator, mount-driver pipelining).
			type row struct {
				Name       string
				Throughput float64 // MBytes/sec
				Latency    float64 // milliseconds
				Err        string  `json:",omitempty"`
			}
			rows := make([]row, 0, len(res.Rows))
			for _, r := range res.Rows {
				jr := row{Name: r.Name, Throughput: r.Throughput, Latency: r.Latency}
				if r.Err != nil {
					jr.Err = r.Err.Error()
				}
				rows = append(rows, jr)
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{
				"table1": rows,
				"block":  block.Snapshot(),
				"mnt":    mnt.StatsGroup().Snapshot(),
			}); err != nil {
				fmt.Fprintln(os.Stderr, "netsim:", err)
				exitCode = 1
			}
			return
		}
		fmt.Print(res.Format())
		fmt.Printf("\nblock pool: %s\n", block.Snapshot())
		return
	}

	w, err := core.PaperWorld(core.FastProfiles())
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		exitCode = 1
		return
	}
	defer w.Close()

	if *figure1 {
		printFigure1(w)
	}
	if *transcript {
		printTranscript(w)
	}
	if *imp {
		printImport(w)
	}
}

// printFigure1 opens conversations on helix's ether and walks the tree.
func printFigure1(w *core.World) {
	helix := w.Machine("helix")
	// Open a few conversations so numbered directories exist.
	var ctls []*ns.FD
	for range 2 {
		ctl, err := helix.NS.Open("/net/ether0/clone", vfs.ORDWR)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		ctl.WriteString(netmsg.Connect("2048"))
		ctls = append(ctls, ctl)
	}
	defer func() {
		for _, c := range ctls {
			c.Close()
		}
	}()
	fmt.Println("cpu% ls /net/ether0    # Figure 1")
	ents, _ := helix.NS.ReadDir("/net/ether0")
	for _, e := range ents {
		fmt.Printf("  ether0/%s\n", e.Name)
		if e.IsDir() {
			sub, _ := helix.NS.ReadDir("/net/ether0/" + e.Name)
			for _, s := range sub {
				fmt.Printf("  ether0/%s/%s\n", e.Name, s.Name)
			}
		}
	}
	b, _ := helix.NS.ReadFile("/net/ether0/1/type")
	fmt.Printf("cpu%% cat /net/ether0/1/type\n  %s\n", b)
	b, _ = helix.NS.ReadFile("/net/ether0/1/stats")
	fmt.Printf("cpu%% cat /net/ether0/1/stats\n")
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		fmt.Printf("  %s\n", line)
	}
}

// printTranscript reproduces the §2.3 connection-directory listing.
func printTranscript(w *core.World) {
	musca := w.Machine("musca")
	conn, err := dialer.Dial(musca.NS, "tcp!bootes!9fs")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		return
	}
	defer conn.Close()
	fmt.Printf("cpu%% cd %s\ncpu%% ls\n", conn.Dir)
	ents, _ := musca.NS.ReadDir(conn.Dir)
	for _, e := range ents {
		fmt.Printf("  %s\n", e.Name)
	}
	fmt.Println("cpu% cat local remote status")
	for _, f := range []string{"local", "remote", "status"} {
		b, _ := musca.NS.ReadFile(conn.Dir + "/" + f)
		fmt.Printf("  %s", b)
	}
}

// printImport reproduces the §6.1 ls /net before/after transcript.
func printImport(w *core.World) {
	gnot := w.Machine("philw-gnot")
	show := func() {
		names := gnot.LsNet()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  /net/%s\n", n)
		}
	}
	fmt.Println("philw-gnot% ls /net")
	show()
	fmt.Println("philw-gnot% import -a helix /net")
	if _, err := gnot.Import("dk!nj/astro/helix!exportfs", "/net", "/net", ns.MAFTER); err != nil {
		fmt.Fprintln(os.Stderr, "import:", err)
		return
	}
	fmt.Println("philw-gnot% ls /net")
	show()
	// And prove the gateway works: a TCP echo through helix.
	conn, err := dialer.Dial(gnot.NS, "tcp!helix!echo")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcp through gateway:", err)
		return
	}
	defer conn.Close()
	conn.Write([]byte("hello via the gateway"))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	fmt.Printf("philw-gnot%% echo via tcp!helix!echo -> %q\n", buf[:n])
}
