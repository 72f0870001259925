package main

import (
	"fmt"
	"strings"

	"repro/internal/torture"
)

// runChaos runs the full torture matrix — msgs messages per direction
// over the standard impairment cocktail (torture.Chaos) — once per
// seed in [seed, seed+seeds), and prints a report per protocol. The
// scenarios run on the discrete-event clock, so a multi-seed sweep
// costs wall-clock seconds. mods is a comma-separated list of
// line-discipline specs ("compress,batch 1024 2ms") pushed on both ends
// of every conversation. A failing scenario is shrunk to its minimal
// reproduction before the command exits nonzero.
func runChaos(seed int64, msgs, seeds int, mods string) int {
	if seeds < 1 {
		seeds = 1
	}
	var specs []string
	for _, m := range strings.Split(mods, ",") {
		if m = strings.TrimSpace(m); m != "" {
			specs = append(specs, m)
		}
	}
	failed := 0
	for sd := seed; sd < seed+int64(seeds); sd++ {
		for _, proto := range torture.Protos {
			s := torture.Chaos(proto, sd, msgs)
			s.Mods = specs
			rep := torture.Run(s)
			if seeds > 1 {
				// Sweeps stay terse: one line per passing scenario.
				if !rep.Failed() {
					fmt.Printf("torture %s seed=%d: ok (%d+%d msgs, %d retransmits, elapsed %v)\n",
						proto, sd, rep.Forward.Msgs, rep.Backward.Msgs, rep.Retransmits, rep.Elapsed)
				} else {
					fmt.Print(rep)
				}
			} else {
				fmt.Print(rep)
			}
			if rep.Failed() {
				failed++
				minimal, runs := torture.Shrink(s, func(c torture.Scenario) bool {
					return torture.Run(c).Failed()
				}, 60)
				fmt.Printf("  minimal reproduction (%d shrink runs):\n    %s\n", runs, minimal)
			}
		}
	}
	return failed
}
