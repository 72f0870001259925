package core

import (
	"time"

	"repro/internal/cyclone"
	"repro/internal/dnssrv"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/medium"
	"repro/internal/vclock"
)

// PaperNdb is the world's database, built from the entries printed in
// §4.1 of the paper plus the systems its examples mention (musca,
// p9auth, philw's gnot) and the service ports its transcripts use.
const PaperNdb = `#
# local database, after §4.1 of the paper
#
ipnet=mh-astro-net ip=135.104.0.0 ipmask=255.255.255.0
	fs=bootes.research.bell-labs.com
	auth=p9auth
ipnet=unix-room ip=135.104.117.0
	ipgw=135.104.117.1
ipnet=third-floor ip=135.104.51.0
	ipgw=135.104.51.1
ipnet=fourth-floor ip=135.104.52.0
	ipgw=135.104.52.1

sys=bootes
	dom=bootes.research.bell-labs.com
	ip=135.104.9.2
	proto=il flavor=9fs
sys=helix
	dom=helix.research.bell-labs.com
	bootf=/mips/9power
	ip=135.104.9.31 ether=0800690222f0
	dk=nj/astro/helix
	proto=il flavor=9cpu
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6
	dk=nj/astro/musca
	proto=il flavor=9cpu
sys=p9auth
	dom=p9auth.research.bell-labs.com
	ip=135.104.9.34
	dk=nj/astro/p9auth
sys=philw-gnot
	dk=nj/astro/philw-gnot
sys=a-root
	dom=a.root-servers.net
	ip=135.104.9.100

tcp=echo	port=7
tcp=discard	port=9
tcp=systat	port=11
tcp=daytime	port=13
tcp=login	port=513
tcp=exportfs	port=17007
tcp=9fs		port=564
tcp=ftp		port=21
il=echo		port=56552
il=discard	port=56553
il=daytime	port=56554
il=systat	port=56556
il=9fs		port=17008
il=exportfs	port=17666
il=rexauth	port=17021
il=cpu		port=17010
tcp=cpu		port=17013
il=bench	port=56990
tcp=bench	port=56990
udp=dns		port=53
`

// PaperProfiles are the media calibrations for the Table 1
// reproduction, scaled from the 1993 hardware: Ethernet ~10 Mb/s,
// Datakit ~2 Mb/s cell traffic with higher latency, Cyclone 125 Mb/s
// point-to-point fiber.
type PaperProfiles struct {
	Ether   ether.Profile
	Datakit medium.Profile
	Cyclone medium.Profile
}

// CalibratedProfiles returns profiles matching the paper's relative
// media speeds.
func CalibratedProfiles() PaperProfiles {
	return PaperProfiles{
		Ether: ether.Profile{
			Bandwidth: 10_000_000 / 8, // 10 Mb/s
			Latency:   200 * time.Microsecond,
		},
		Datakit: medium.Profile{
			Bandwidth: 2_000_000 / 8, // ~2 Mb/s trunk
			Latency:   400 * time.Microsecond,
			MTU:       2048,
		},
		Cyclone: medium.Profile{
			// The fiber runs at 125 Mb/s but the paper measured
			// 3.2 MB/s end to end: the VME-card software copy is
			// the bottleneck, so the effective rate is what the
			// link profile models.
			Bandwidth: 3_500_000,
			Latency:   50 * time.Microsecond,
		},
	}
}

// FastProfiles returns ideal media for functional tests: wires with
// nothing to pace, so a message is due on its delay line at once and
// crosses at memory speed, by the receive path the paced media run.
func FastProfiles() PaperProfiles {
	return PaperProfiles{}
}

// WANProfiles stretches the office topology across a wide-area link:
// plenty of bandwidth, but every medium carries multi-millisecond
// latency. This is where a serial RPC-per-fragment mount driver is
// purely latency-bound and the sliding window pays off most (see
// EXPERIMENTS.md).
func WANProfiles() PaperProfiles {
	return PaperProfiles{
		Ether: ether.Profile{
			Bandwidth: 100_000_000 / 8, // 100 Mb/s
			Latency:   5 * time.Millisecond,
		},
		Datakit: medium.Profile{
			Bandwidth: 10_000_000 / 8,
			Latency:   10 * time.Millisecond,
			MTU:       2048,
		},
		Cyclone: medium.Profile{
			Bandwidth: 100_000_000 / 8,
			Latency:   5 * time.Millisecond,
		},
	}
}

// PaperWorld builds the paper's topology:
//
//   - an office Ethernet carrying bootes (the file server), helix and
//     musca (CPU servers), p9auth (the auth box), and a-root (a root
//     name server);
//   - the Datakit, reaching helix, musca, p9auth, and philw's gnot —
//     a terminal with only a Datakit connection (§6.1);
//   - a Cyclone fiber link between bootes and helix (§7);
//   - DNS: a-root serves the root zone, bootes is authoritative for
//     research.bell-labs.com;
//   - services: 9fs and exportfs on the servers, echo and discard on
//     helix.
//
// Every medium and machine runs on ck, as in NewWorldClock.
func PaperWorld(profiles PaperProfiles, ck vclock.Clock) (*World, error) {
	w, err := NewWorldClock(PaperNdb, ck)
	if err != nil {
		return nil, err
	}
	w.AddEther("ether0", profiles.Ether)
	w.AddDatakit(profiles.Datakit)
	w.SetDNSRoots(ip.Addr{135, 104, 9, 100})

	// DNS zones.
	rootZone := dnssrv.NewZone("")
	rootZone.Delegate("research.bell-labs.com", "bootes.research.bell-labs.com", "135.104.9.2")
	rblZone := dnssrv.NewZone("research.bell-labs.com")
	for _, hz := range [][2]string{
		{"bootes.research.bell-labs.com", "135.104.9.2"},
		{"helix.research.bell-labs.com", "135.104.9.31"},
		{"musca.research.bell-labs.com", "135.104.9.6"},
		{"p9auth.research.bell-labs.com", "135.104.9.34"},
	} {
		rblZone.AddA(hz[0], hz[1])
	}
	rblZone.Add(dnssrv.RR{Name: "fs.research.bell-labs.com", Type: dnssrv.TypeCNAME,
		Data: "bootes.research.bell-labs.com"})
	// A host known only to DNS (not in ndb), so dialing it exercises
	// the CS → DNS path; it is an alias address of helix.
	rblZone.AddA("tenex.research.bell-labs.com", "135.104.9.31")

	boot := func(cfg MachineConfig) (*Machine, error) {
		m, err := w.NewMachine(cfg)
		if err != nil {
			w.Close()
			return nil, err
		}
		return m, nil
	}

	if _, err := boot(MachineConfig{Name: "a-root", Ethers: []string{"ether0"}, ServeDNS: rootZone}); err != nil {
		return nil, err
	}
	bootes, err := boot(MachineConfig{Name: "bootes", Ethers: []string{"ether0"}, ServeDNS: rblZone})
	if err != nil {
		return nil, err
	}
	helix, err := boot(MachineConfig{Name: "helix", Ethers: []string{"ether0"}, Datakit: true})
	if err != nil {
		return nil, err
	}
	musca, err := boot(MachineConfig{Name: "musca", Ethers: []string{"ether0"}, Datakit: true})
	if err != nil {
		return nil, err
	}
	if _, err := boot(MachineConfig{Name: "p9auth", Ethers: []string{"ether0"}, Datakit: true}); err != nil {
		return nil, err
	}
	gnot, err := boot(MachineConfig{Name: "philw-gnot", Datakit: true})
	if err != nil {
		return nil, err
	}
	_ = gnot

	// The Cyclone link between the file server and a CPU server, on the
	// world's clock unless its profile names one.
	if profiles.Cyclone.Clock == nil {
		profiles.Cyclone.Clock = w.Clock()
	}
	link := cyclone.NewLink("bootes-helix", profiles.Cyclone)
	w.OnClose(link.Close)
	endB, endH := link.Ends()
	if _, err := bootes.AttachCyclone(endB); err != nil {
		w.Close()
		return nil, err
	}
	if _, err := helix.AttachCyclone(endH); err != nil {
		w.Close()
		return nil, err
	}

	// Services.
	type svc struct {
		m    *Machine
		addr string
		kind string
	}
	services := []svc{
		{bootes, "il!*!9fs", "9fs"},
		{bootes, "tcp!*!9fs", "9fs"},
		{bootes, "il!*!exportfs", "exportfs"},
		{helix, "il!*!exportfs", "exportfs"},
		{helix, "tcp!*!exportfs", "exportfs"},
		{helix, "dk!*!exportfs", "exportfs"},
		{helix, "il!*!echo", "echo"},
		{helix, "tcp!*!echo", "echo"},
		{helix, "dk!*!echo", "echo"},
		{helix, "il!*!discard", "discard"},
		{helix, "tcp!*!discard", "discard"},
		{musca, "il!*!exportfs", "exportfs"},
		{musca, "dk!*!exportfs", "exportfs"},
	}
	for _, s := range services {
		var err error
		switch s.kind {
		case "9fs":
			_, err = s.m.Serve9P(s.addr, "/")
		case "exportfs":
			_, err = s.m.ServeExportfs(s.addr)
		case "echo":
			_, err = s.m.ServeEcho(s.addr)
		case "discard":
			_, err = s.m.ServeDiscard(s.addr)
		}
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}
