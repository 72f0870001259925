//go:build race

package vclock

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
)

// lockSite is where a Lock was bound, which is its class, as lockdep
// keys a lock by where it was initialised; where it was last taken;
// and its link in its clock's list of held Locks. Only a race build
// keeps it, as only a race build records where a block was allocated:
// a stack per Lock is more than the lock itself costs.
type lockSite struct {
	class      uintptr
	pcs        [4]uintptr
	prev, next *Lock
}

// bind records the caller of Init as l's class.
func (s *lockSite) bind() {
	var pc [1]uintptr
	runtime.Callers(3, pc[:]) // skip Callers, bind and Init
	s.class = pc[0]
}

// heldList is a virtual clock's list of held Locks.
type heldList struct{ head *Lock }

// order is the lock order every race build's run has shown so far:
// for each class, the classes taken while one of it was held, and
// where first. It spans clocks, as classes are places in the code.
var order struct {
	sync.Mutex
	after map[uintptr]map[uintptr][4]uintptr
}

// took records where l was taken, checks the order it was taken in
// against every held Lock, and puts it on v's list. A Lock already on
// the list is taken twice, which hangs on the real clock: the run
// panics now, naming where it was first taken. A lock taken while
// one of another class is held, where the other has been taken while
// one of l's class was held, directly or through others, is a cycle
// that deadlocks on the real clock once two processes meet in it: the
// run panics now, with both ways round, as lockdep does. On the
// virtual clock no Lock is contended, so only this check sees it.
func (v *Virtual) took(l *Lock) {
	var pcs [4]uintptr
	runtime.Callers(3, pcs[:]) // skip Callers, took and Lock
	if l.site.prev != nil || v.held.head == l {
		msg := "vclock: the lock taken at " + siteOf(l.site.pcs[:]) + " taken again at " + siteOf(pcs[:])
		fmt.Fprintln(os.Stderr, msg) // as mightPark does
		panic(msg)
	}
	l.site.pcs = pcs
	l.site.prev, l.site.next = nil, v.held.head
	if h := v.held.head; h != nil {
		h.site.prev = l
	}
	v.held.head = l
	for h := l.site.next; h != nil; h = h.site.next {
		if a, b := h.site.class, l.site.class; a != b && a != 0 && b != 0 {
			checkOrder(a, b, l.site.pcs)
		}
	}
}

// gave takes l off v's list.
func (v *Virtual) gave(l *Lock) {
	if p := l.site.prev; p != nil {
		p.site.next = l.site.next
	} else if v.held.head == l {
		v.held.head = l.site.next
	}
	if n := l.site.next; n != nil {
		n.site.prev = l.site.prev
	}
	l.site.prev, l.site.next = nil, nil
}

// checkOrder records that a lock of class b was taken at pcs while
// one of class a was held, and panics if a lock of class a has been
// taken while one of class b was held.
func checkOrder(a, b uintptr, pcs [4]uintptr) {
	order.Lock()
	defer order.Unlock()
	if order.after == nil {
		order.after = make(map[uintptr]map[uintptr][4]uintptr)
	}
	if _, seen := order.after[a][b]; seen {
		return
	}
	if path := orderPath(b, a); path != nil {
		msg := fmt.Sprintf("vclock: lock order inversion: the lock bound at %s, taken at %s while the lock bound at %s was held; but",
			siteOf([]uintptr{b}), siteOf(pcs[:]), siteOf([]uintptr{a}))
		for i := 1; i < len(path); i++ {
			w := order.after[path[i-1]][path[i]]
			msg += fmt.Sprintf(" the lock bound at %s was taken at %s while the lock bound at %s was held;",
				siteOf([]uintptr{path[i]}), siteOf(w[:]), siteOf([]uintptr{path[i-1]}))
		}
		msg = strings.TrimSuffix(msg, ";")
		fmt.Fprintln(os.Stderr, msg) // as mightPark does
		panic(msg)
	}
	if order.after[a] == nil {
		order.after[a] = make(map[uintptr][4]uintptr)
	}
	order.after[a][b] = pcs
}

// orderPath returns the classes from one to another along the order
// recorded so far, nil if there is no way.
func orderPath(from, to uintptr) []uintptr {
	prev := map[uintptr]uintptr{from: 0}
	queue := []uintptr{from}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if c == to {
			var path []uintptr
			for ; c != from; c = prev[c] {
				path = append([]uintptr{c}, path...)
			}
			return append([]uintptr{from}, path...)
		}
		for next := range order.after[c] {
			if _, seen := prev[next]; !seen {
				prev[next] = c
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// heldAcross says where each held Lock but own was taken, held across
// op.
func (v *Virtual) heldAcross(op string, own sync.Locker) string {
	var sites []string
	for l := v.held.head; l != nil; l = l.site.next {
		if sync.Locker(l) != own {
			sites = append(sites, "the lock taken at "+siteOf(l.site.pcs[:]))
		}
	}
	return strings.Join(sites, " and ") + " held across " + op
}

// siteOf renders the first frame outside this package (its tests
// aside) and its caller.
func siteOf(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	var names []string
	for {
		f, more := frames.Next()
		if f.Function != "" && (!strings.HasPrefix(f.Function, "repro/internal/vclock.") || strings.HasSuffix(f.File, "_test.go")) {
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
