// Corpus for the //netvet:ignore directive grammar, on the realtime
// check: a directive needs a known check list and a non-empty reason.
// Same-line and line-above placement suppress; a bare directive, a
// reasonless directive, and an unknown check name (a misspelling, or a
// check that no longer exists) are themselves errors; a directive
// naming a different check suppresses nothing and, having matched no
// finding, is reported as stale.
package ignorecase

import "time"

func sameLine() time.Time {
	return time.Now() //netvet:ignore realtime deliberate: a wall-clock stamp
}

func lineAbove() time.Time {
	//netvet:ignore realtime deliberate
	return time.Now()
}

func bareDirective() time.Time {
	//netvet:ignore
	// want-1 directive "needs a check list and a reason"
	return time.Now() // want realtime "time.Now reads the real clock"
}

func reasonlessDirective() time.Time {
	//netvet:ignore realtime
	// want-1 directive "needs a reason"
	return time.Now() // want realtime "time.Now reads the real clock"
}

func unknownCheckName() time.Time {
	//netvet:ignore no-such-check because reasons
	// want-1 directive "unknown check"
	return time.Now() // want realtime "time.Now reads the real clock"
}

// A suppression of a retired check is an unknown name too: the virtual
// clock catches a lock held across a park at run time now.
func retiredCheckName() time.Time {
	//netvet:ignore lock-across-send the lock is dropped before the park
	// want-1 directive "unknown check"
	return time.Now() // want realtime "time.Now reads the real clock"
}

func wrongCheckName() time.Time {
	//netvet:ignore unclosed-resource names a different check
	return time.Now() // want realtime "time.Now reads the real clock" // want-1 directive "matched no finding"
}
