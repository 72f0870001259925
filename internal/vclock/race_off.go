//go:build !race

package vclock

import (
	"fmt"
	"sync"
)

// Without the race detector no Lock records where it was taken: a
// bound Lock costs a nil check and an increment.
type lockSite struct{}

func (*lockSite) bind() {}

type heldList struct{}

func (*Virtual) took(*Lock) {}
func (*Virtual) gave(*Lock) {}

// heldAcross counts the held Locks but own, held across op; only a
// race build can say where they were taken.
func (v *Virtual) heldAcross(op string, own sync.Locker) string {
	n := v.nlocks
	if l, ok := own.(*Lock); ok && l.v == v {
		n--
	}
	return fmt.Sprintf("%d Lock(s) held across %s (a -race build names where each was taken)", n, op)
}
