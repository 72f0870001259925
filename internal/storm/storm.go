// Package storm boots large Datakit worlds and drives three storms over
// them, the way a building full of terminals hammers the machinery
// after a power cut:
//
//   - Run, the registry storm: every machine staggers in and repeatedly
//     calls one echo service by its Datakit address;
//   - RunGateway, the import storm: every machine repeatedly imports one
//     exporter's tree through its multi-tenant gateway;
//   - RunRegistry, the dial storm: every machine dials the registry by
//     symbolic name at t=0, several dialers apiece.
//
// The three are scenario functions on one harness (runOn, boot, fanOut,
// echoCall, pause); a scenario holds only what is its own — what the
// registry serves, one client loop's life, the closing of its books. On
// the virtual clock the whole exercise is a discrete-event simulation:
// simulated hours cost wall-clock seconds, and a seed pins every pacing
// and impairment decision.
package storm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/medium"
	"repro/internal/vclock"
)

// Datakit hierarchy the machines spread over: area/exchange pairs in
// the style of the paper's nj/astro.
var (
	areas     = []string{"nj", "mh", "il", "dk"}
	exchanges = []string{"astro", "coma", "lyra", "vega"}
)

// The switch's circuits: a WAN-ish 2 ms and 1 MB/s.
const (
	circuitLatency   = 2 * time.Millisecond
	circuitBandwidth = 1 << 20
)

// Config sizes one storm.
type Config struct {
	// Machines is the number of calling machines booted besides the
	// registry itself; 0 means 1000.
	Machines int
	// Sim is the simulated duration each machine keeps calling for; 0
	// means 75 s. The mean pause between one loop's calls is Sim/8.
	Sim time.Duration
	// Seed pins the call pacing and payload sizes (and, through the
	// medium, any impairment decisions).
	Seed int64
	// Virtual runs the world on a discrete-event clock; otherwise the
	// storm burns real time.
	Virtual bool
}

func (c Config) withDefaults() Config {
	if c.Machines == 0 {
		c.Machines = 1000
	}
	if c.Sim == 0 {
		c.Sim = 75 * time.Second
	}
	return c
}

// ndbText writes the database for n machines plus the registry,
// spread across the area/exchange hierarchy.
func ndbText(n int) string {
	var b strings.Builder
	b.WriteString("sys=registry\n\tdk=nj/astro/registry\n")
	for i := range n {
		name := machineName(i)
		fmt.Fprintf(&b, "sys=%s\n\tdk=%s\n", name, dkName(i))
	}
	return b.String()
}

func machineName(i int) string { return fmt.Sprintf("m%04d", i) }

func dkName(i int) string {
	area := areas[i%len(areas)]
	exch := exchanges[(i/len(areas))%len(exchanges)]
	return area + "/" + exch + "/" + machineName(i)
}

// world is a booted storm: the registry machine and the callers, with
// the clock and sizing they run on.
type world struct {
	ck       vclock.Clock
	cfg      Config
	interval time.Duration // mean pause between one loop's calls
	reg      *core.Machine
	machines []*core.Machine
}

// runOn is the harness. It makes a world for cfg — on a fresh
// discrete-event clock if cfg.Virtual, else on the real one — boots
// it, runs scenario in it, tears it down, and returns the wall-clock
// time the whole exercise took. serve sets the registry machine up
// before the callers boot.
func runOn(cfg Config, serve func(reg *core.Machine) error, scenario func(w *world) error) (time.Duration, error) {
	run := func(ck vclock.Clock) error {
		cw, err := core.NewWorldClock(ndbText(cfg.Machines), ck)
		if err != nil {
			return err
		}
		defer cw.Close()
		w, err := boot(cw, cfg, serve)
		if err != nil {
			return err
		}
		return scenario(w)
	}
	wall := time.Now() //netvet:ignore realtime wall-clock half of the simulation report
	var err error
	if cfg.Virtual {
		v := vclock.NewVirtual()
		v.Run(func() { err = run(v) })
	} else {
		err = run(vclock.Real)
	}
	return time.Since(wall), err //netvet:ignore realtime wall-clock half of the simulation report
}

// boot populates the world: the Datakit switch, the registry machine
// with its service announced, then the cfg.Machines callers in name
// order.
func boot(w *core.World, cfg Config, serve func(reg *core.Machine) error) (*world, error) {
	w.AddDatakit(medium.Profile{
		Latency:   circuitLatency,
		Bandwidth: circuitBandwidth,
		MTU:       2048,
		Seed:      cfg.Seed,
	})
	reg, err := w.NewMachine(core.MachineConfig{Name: "registry", Datakit: true})
	if err != nil {
		return nil, fmt.Errorf("storm: boot registry: %w", err)
	}
	if err := serve(reg); err != nil {
		return nil, fmt.Errorf("storm: announce registry: %w", err)
	}
	machines := make([]*core.Machine, cfg.Machines)
	for i := range machines {
		m, err := w.NewMachine(core.MachineConfig{Name: machineName(i), Datakit: true})
		if err != nil {
			return nil, fmt.Errorf("storm: boot %s: %w", machineName(i), err)
		}
		machines[i] = m
	}
	return &world{ck: w.Clock(), cfg: cfg, interval: cfg.Sim / 8, reg: reg, machines: machines}, nil
}

// fanOut runs loops client loops on every machine and waits for them
// all. Each loop draws from an rng of its own, seeded by (seed,
// machine, loop), so no loop's pacing depends on another's.
func (w *world) fanOut(loops int, client func(m *core.Machine, rng *rand.Rand)) {
	cfg := w.cfg
	wg := vclock.NewWaitGroup(w.ck)
	for i, m := range w.machines {
		for d := range loops {
			wg.Add(1)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + int64(d)*104729))
			w.ck.Go(func() {
				defer wg.Done()
				client(m, rng)
			})
		}
	}
	wg.Wait()
}

// pause sleeps a jittered mean: mean ±50%.
func (w *world) pause(rng *rand.Rand, mean time.Duration) {
	w.ck.Sleep(mean/2 + time.Duration(rng.Int63n(int64(mean))))
}

// echoCall writes one random payload of 64–255 bytes on conn and reads
// it back, reporting the payload size and whether the echo came back
// whole and byte for byte.
func echoCall(conn *dialer.Conn, rng *rand.Rand) (n int, ok bool) {
	n = 64 + rng.Intn(192)
	msg := make([]byte, n)
	rng.Read(msg)
	if _, err := conn.Write(msg); err != nil {
		return n, false
	}
	got := make([]byte, n)
	_, err := io.ReadFull(conn, got)
	return n, err == nil && bytes.Equal(got, msg)
}

// serveEcho is what the registry offers in the two calling storms.
func serveEcho(reg *core.Machine) error {
	_, err := reg.ServeEcho("dk!*!registry")
	return err
}

// Result is what the storm did.
type Result struct {
	Machines  int
	Calls     int64 // registry calls that completed, echo verified
	Errors    int64 // dials refused or conversations cut short
	Bytes     int64 // payload bytes echoed back
	Simulated time.Duration
	Wall      time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("storm: %d machines, %d calls (%d errors), %d bytes echoed, simulated %v in %v wall",
		r.Machines, r.Calls, r.Errors, r.Bytes,
		r.Simulated.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
}

// Run boots the world and drives the registry storm to completion. One
// machine's life: stagger in, then call the registry, verify the echo,
// and pause, until the simulated duration has elapsed.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Machines: cfg.Machines, Simulated: cfg.Sim}
	var calls, errors, nbytes atomic.Int64
	var err error
	res.Wall, err = runOn(cfg, serveEcho, func(w *world) error {
		w.fanOut(1, func(m *core.Machine, rng *rand.Rand) {
			start := w.ck.Now()
			// Stagger the boot flood across the first interval.
			w.ck.Sleep(time.Duration(rng.Int63n(int64(w.interval))))
			for w.ck.Since(start) < cfg.Sim {
				conn, err := dialer.Dial(m.NS, "dk!nj/astro/registry!registry")
				if err != nil {
					errors.Add(1)
					w.ck.Sleep(w.interval / 4)
					continue
				}
				n, ok := echoCall(conn, rng)
				conn.Close()
				if ok {
					calls.Add(1)
					nbytes.Add(int64(n))
				} else {
					errors.Add(1)
				}
				w.pause(rng, w.interval)
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Calls, res.Errors, res.Bytes = calls.Load(), errors.Load(), nbytes.Load()
	return res, nil
}
