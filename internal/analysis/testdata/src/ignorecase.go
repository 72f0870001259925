// Corpus for the //netvet:ignore directive grammar: a directive needs
// a known check list and a non-empty reason. Same-line and line-above
// placement suppress; a bare directive, a reasonless directive, and an
// unknown check name are themselves errors; a directive naming a
// different check suppresses nothing and, having matched no finding,
// is reported as stale.
package ignorecase

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func sameLine(b *box) {
	b.mu.Lock()
	b.ch <- 1 //netvet:ignore lock-across-send deliberate: peer never drains under this lock
	b.mu.Unlock()
}

func lineAbove(b *box) {
	b.mu.Lock()
	//netvet:ignore lock-across-send deliberate
	b.ch <- 1
	b.mu.Unlock()
}

func bareDirective(b *box) {
	b.mu.Lock()
	//netvet:ignore
	// want-1 directive "needs a check list and a reason"
	b.ch <- 1 // want lock-across-send "channel send while holding b.mu"
	b.mu.Unlock()
}

func reasonlessDirective(b *box) {
	b.mu.Lock()
	//netvet:ignore lock-across-send
	// want-1 directive "needs a reason"
	b.ch <- 1 // want lock-across-send "channel send while holding b.mu"
	b.mu.Unlock()
}

func unknownCheckName(b *box) {
	b.mu.Lock()
	//netvet:ignore no-such-check because reasons
	// want-1 directive "unknown check"
	b.ch <- 1 // want lock-across-send "channel send while holding b.mu"
	b.mu.Unlock()
}

func wrongCheckName(b *box) {
	b.mu.Lock()
	//netvet:ignore unclosed-resource names a different check
	b.ch <- 1 // want lock-across-send "channel send while holding b.mu" // want-1 directive "matched no finding"
	b.mu.Unlock()
}
