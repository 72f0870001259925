//go:build race

package block

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// RaceEnabled reports whether the race detector is compiled in; alloc
// gates skip under it because its instrumentation allocates.
const RaceEnabled = true

// siteDepth is how many frames of an allocation are kept: enough to
// climb out of Copy or Control into the caller and the caller's caller.
const siteDepth = 6

// sites maps each live block to the stack that allocated it, so a leak
// gate can name what never came home. It is compiled only under the
// race detector, which check.sh runs: taking a stack per allocation
// makes an Alloc/Free pair about twelve times slower, a cost the plain
// build and the benchmark do not pay.
//
// The race detector counts the lock as synchronisation: it orders every
// Alloc and Free after every earlier one, as the atomic counters
// already order Alloc after Alloc and Free after Free. A use after
// transfer that such an ordering covers goes unreported; the seeded
// ones in EXPERIMENTS §2 fail as many tests under -race with the
// recorder as without it.
var sites struct {
	sync.Mutex
	live map[*Block][siteDepth]uintptr
}

func track(b *Block) {
	var pcs [siteDepth]uintptr
	runtime.Callers(3, pcs[:]) // skip Callers, track and Alloc/FromBytes
	sites.Lock()
	if sites.live == nil {
		sites.live = make(map[*Block][siteDepth]uintptr)
	}
	sites.live[b] = pcs
	sites.Unlock()
}

func untrack(b *Block) {
	sites.Lock()
	delete(sites.live, b)
	sites.Unlock()
}

// Outstanding names the allocation sites of the blocks not yet freed,
// one line per site with its count, the largest first.
func Outstanding() []string {
	count := map[string]int{}
	sites.Lock()
	for _, pcs := range sites.live {
		count[siteOf(pcs[:])]++
	}
	sites.Unlock()
	names := make([]string, 0, len(count))
	for site := range count {
		names = append(names, site)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := count[names[i]], count[names[j]]; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	out := make([]string, len(names))
	for i, site := range names {
		out[i] = fmt.Sprintf("%d from %s", count[site], site)
	}
	return out
}

// siteOf renders the first frame outside this package and its caller.
func siteOf(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	var names []string
	for {
		f, more := frames.Next()
		if f.Function != "" && !strings.HasPrefix(f.Function, "repro/internal/block.") {
			names = append(names, fmt.Sprintf("%s (%s:%d)", strings.TrimPrefix(f.Function, "repro/internal/"), trimPath(f.File), f.Line))
			if len(names) == 2 {
				break
			}
		}
		if !more {
			break
		}
	}
	return strings.Join(names, " called by ")
}

// trimPath keeps a file's directory and name.
func trimPath(file string) string {
	if i := strings.LastIndexByte(file, '/'); i > 0 {
		if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
			return file[j+1:]
		}
	}
	return file
}
