package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// This file is the one held-lock analysis: a forward may-hold dataflow
// over each function's CFG, tracking every sync.Mutex, sync.RWMutex and
// vclock.Mutex by receiver expression (so local and unkeyed mutexes stay
// tracked) with its (type, field) graph key beside it. Three reporters
// read the one solve: the direct parks and the transitive may-park rule
// below, both under lock-across-send, and lock-order (lockorder.go).
//
// A park is a channel operation (send, receive, select without default,
// range over a channel), sync.WaitGroup.Wait, time.Sleep, Cond.Wait of
// either package, or one of the virtual clock's primitives: Sleep,
// SleepUntil, Mailbox.Send and Recv, WaitGroup.Wait, Mutex.Lock. A sync
// lock held across one stops the token scheduler the moment a second
// process wants the lock; a vclock.Mutex is the lock that may be held
// across a park, so the rule does not apply to it. Package vclock is the
// implementation of parking: a call into it parks exactly when it names
// one of those primitives, whatever its body does.
//
// Each declared function gets a summary — the graph keys it locks, the
// module functions it calls, its direct parks — and Finish closes "may
// park" over the call graph the way lock-order closes acquisitions. A
// call through an interface resolves to the method of every module-local
// type that implements it. A //netvet:ignore lock-across-send directive
// on a park or a call also cuts it out of the enclosing function's
// summary: it states once, at the lowest frame where it is true, why
// that site cannot park, for every caller. Calls through function values
// and through code outside the module (fmt.Fprintf(w, ...)) are not
// followed.
var lockAcrossSendCheck = &Check{
	Name:   "lock-across-send",
	Doc:    "sync lock held across a channel operation, a park, or a call that may park",
	Run:    collectLocks,
	Finish: finishLockAcrossSend,
}

// held is one lock that may be held at a program point.
type held struct {
	recv  string    // receiver expression: the lock's identity in this function
	key   string    // lock-order graph key, "" for a lock with no cross-function identity
	pos   token.Pos // its Lock call
	parks bool      // a vclock.Mutex
}

// heldState is the dataflow state, by receiver expression. Immutable.
type heldState map[string]held

// sorted lists the held locks, earliest acquisition first.
func (s heldState) sorted() []held {
	return slices.SortedFunc(maps.Values(s), func(a, b held) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.recv, b.recv))
	})
}

// firstSync returns the earliest-taken sync lock among hs.
func firstSync(hs []held) (held, bool) {
	i := slices.IndexFunc(hs, func(h held) bool { return !h.parks })
	if i < 0 {
		return held{}, false
	}
	return hs[i], true
}

// lockSummary is what one declared function contributes to its callers.
type lockSummary struct {
	acquires map[string]token.Pos     // graph keys it locks itself
	calls    map[*types.Func]callSite // module functions it calls, first site
	parks    map[token.Pos]string     // its direct parks
}

// callSite is where a function first calls another. iface marks a
// callee known only as one implementer of an interface method: may-park
// follows those, lock-order does not — dynamic dispatch is where layers
// of one type stack (9P over a mount over 9P), and its (type, field)
// keys would read that chain of instances as a cycle.
type callSite struct {
	pos   token.Pos
	iface bool
}

// heldCall is a call made with locks held.
type heldCall struct {
	callees []*types.Func
	iface   bool
	held    []held
}

// lockFacts is the solve's module-wide result, shared by the reporters.
type lockFacts struct {
	solved    map[*Pkg]bool
	funcs     []*types.Func // declaration order: deterministic iteration
	sums      map[*types.Func]*lockSummary
	edges     map[[2]string]lockWitness // direct lock-order edges
	heldCalls map[token.Pos]heldCall
	findings  map[token.Pos]string // lock-across-send findings
}

// collectLocks solves every function body of the package once, whichever
// lock check asks first.
func collectLocks(p *Pass) {
	if p.res.locks == nil {
		p.res.locks = &lockFacts{
			solved:    map[*Pkg]bool{},
			sums:      map[*types.Func]*lockSummary{},
			edges:     map[[2]string]lockWitness{},
			heldCalls: map[token.Pos]heldCall{},
			findings:  map[token.Pos]string{},
		}
	}
	facts := p.res.locks
	if facts.solved[p.Pkg] {
		return
	}
	facts.solved[p.Pkg] = true
	solve := func(body *ast.BlockStmt) *lockSummary {
		sum := &lockSummary{map[string]token.Pos{}, map[*types.Func]callSite{}, map[token.Pos]string{}}
		Solve(BuildCFG(body), &lockSolve{p: p, facts: facts, sum: sum, comms: map[ast.Node]bool{}})
		return sum
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, _ := p.Pkg.Info.Defs[n.Name].(*types.Func); fn != nil && n.Body != nil {
					facts.sums[fn] = solve(n.Body)
					facts.funcs = append(facts.funcs, fn)
				}
			case *ast.FuncLit:
				solve(n.Body) // runs later or elsewhere: its summary is nobody's
			}
			return true
		})
	}
}

// lockSolve is the Problem for one function body. Transfer records
// facts into maps keyed by position as the solver converges; a block's
// last visit sees its final state, so the last write stands.
type lockSolve struct {
	p     *Pass
	facts *lockFacts
	sum   *lockSummary
	comms map[ast.Node]bool // comm statements of the selects seen so far
}

func (l *lockSolve) Entry() State { return heldState{} }

func (l *lockSolve) Join(a, b State) State {
	j := maps.Clone(a.(heldState))
	for k, h := range b.(heldState) {
		if cur, ok := j[k]; !ok || h.pos < cur.pos {
			j[k] = h
		}
	}
	return j
}

func (l *lockSolve) Equal(a, b State) bool { return maps.Equal(a.(heldState), b.(heldState)) }

// Transfer runs one CFG node. The exit block's nodes are the deferred
// calls, last registered first, so a deferred Unlock releases there and
// a deferred call before it still runs under the lock.
func (l *lockSolve) Transfer(b *BBlock, n ast.Node, st State) State {
	out := st.(heldState)
	switch h := n.(type) {
	case *SelectHeader:
		blocks := true
		for _, c := range h.Select.Body.List {
			if cc := c.(*ast.CommClause); cc.Comm != nil {
				l.comms[cc.Comm] = true
			} else {
				blocks = false // the default case
			}
		}
		if blocks {
			l.park(h.Pos(), "select", out)
		}
		return out
	case *RangeHeader:
		if t := l.p.Pkg.Info.TypeOf(h.Range.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				l.park(h.Pos(), "range over channel", out)
			}
		}
		n = h.Range.X // only the ranged expression evaluates here
	}
	if l.comms[n] {
		return out // the select header stands for its comm operations
	}
	copied := false
	mutable := func() heldState {
		if !copied {
			out, copied = maps.Clone(out), true
		}
		return out
	}
	inspectSkippingFuncLits(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			l.targets(m.Call) // part of the call graph even if exit is never reached
			return false
		case *ast.GoStmt:
			return false // runs on its own thread, holding nothing of ours
		case *ast.SendStmt:
			l.park(m.Pos(), "channel send", out)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				l.park(m.Pos(), "channel receive", out)
			}
		case *ast.CallExpr:
			fn, x := l.p.callee(m)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			if parks, isMutex := mutexType(recvType(fn)); isMutex && x != nil {
				h := held{types.ExprString(x), l.lockKey(x), m.Pos(), parks}
				switch fn.Name() {
				case "Lock", "RLock":
					l.acquire(h, out)
					mutable()[h.recv] = h
				case "Unlock", "RUnlock":
					if _, ok := out[h.recv]; ok {
						delete(mutable(), h.recv)
					}
				}
			} else if what, isWait := parkingCall(fn); isWait {
				// Cond.Wait releases its locker and nothing else: it is
				// excused only when that is the one lock held.
				l.sum.parks[m.Pos()] = what
				hs := out.sorted()
				if _, anySync := firstSync(hs); anySync && len(hs) > 1 {
					l.facts.findings[m.Pos()] = fmt.Sprintf("%s with %d locks held (%s taken at line %d first): Wait releases only its own locker",
						what, len(hs), hs[0].recv, l.p.Fset.Position(hs[0].pos).Line)
				}
			} else if what != "" {
				l.park(m.Pos(), what, out)
			} else if callees, iface := l.targets(m); len(callees) > 0 && len(out) > 0 {
				l.facts.heldCalls[m.Pos()] = heldCall{callees, iface, out.sorted()}
			}
		}
		return true
	})
	return out
}

// park records a direct park: in the function's summary, and as a
// finding against the earliest sync lock held, one per site.
func (l *lockSolve) park(pos token.Pos, what string, s heldState) {
	l.sum.parks[pos] = what
	if h, ok := firstSync(s.sorted()); ok {
		l.facts.findings[pos] = fmt.Sprintf("%s while holding %s (locked at line %d)", what, h.recv, l.p.Fset.Position(h.pos).Line)
	}
}

// acquire records taking h with s held. Between two graph keys the
// order is lock-order's to judge, so it gets an edge; what it cannot
// judge is reported here: two receivers with one key (self or sibling?),
// and a vclock.Mutex under a sync lock, whose Lock parks.
func (l *lockSolve) acquire(h held, s heldState) {
	if _, seen := l.sum.acquires[h.key]; !seen && h.key != "" {
		l.sum.acquires[h.key] = h.pos
	}
	if h.parks {
		l.sum.parks[h.pos] = "vclock.Mutex.Lock"
	}
	reported := false
	for _, o := range s.sorted() {
		if o.recv == h.recv {
			continue
		}
		why := ""
		switch {
		case h.parks && !o.parks:
			why = "a vclock.Mutex parks its waiters"
		case o.key == h.key && h.key != "":
			why = "both are " + h.key + ", which lock-order cannot tell apart"
		}
		if o.key != "" && h.key != "" && o.key != h.key {
			l.facts.addEdge(o.key, h.key, lockWitness{pos: h.pos, lockPos: h.pos})
		}
		if why != "" && !reported {
			reported = true
			l.facts.findings[h.pos] = fmt.Sprintf("acquiring %s while holding %s (locked at line %d): %s", h.recv, o.recv, l.p.Fset.Position(o.pos).Line, why)
		}
	}
}

// targets resolves a call to the module functions it may run — the
// callee itself, or for an interface method every module-local
// implementation — and adds them to the call graph. Package vclock is
// never entered.
func (l *lockSolve) targets(call *ast.CallExpr) (out []*types.Func, iface bool) {
	fn, _ := l.p.callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() == "vclock" {
		return nil, false
	}
	if recv := recvType(fn); recv != nil && types.IsInterface(recv) {
		out, iface = l.p.res.implementers(fn), true
	} else if l.p.res.localPkgs[fn.Pkg().Path()] {
		out = []*types.Func{fn}
	}
	for _, c := range out {
		site := callSite{call.Pos(), iface}
		if cur, seen := l.sum.calls[c]; seen {
			site = callSite{min(cur.pos, site.pos), cur.iface && iface}
		}
		l.sum.calls[c] = site
	}
	return out, iface
}

// callee resolves a call to the function or method it names, with the
// selector's receiver expression when there is one.
func (p *Pass) callee(call *ast.CallExpr) (fn *types.Func, recv ast.Expr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = p.Pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		recv = fun.X
	}
	if fn != nil {
		fn = fn.Origin()
	}
	return fn, recv
}

// implementers lists the module-local methods a call of interface
// method m may run: class-hierarchy resolution over every package-level
// named type of the module.
func (r *Result) implementers(m *types.Func) []*types.Func {
	if out, ok := r.impls[m]; ok {
		return out
	}
	var out []*types.Func
	iface, _ := recvType(m).Underlying().(*types.Interface)
	for _, t := range r.named {
		for _, T := range []types.Type{t, types.NewPointer(t)} {
			if iface == nil || !types.Implements(T, iface) {
				continue
			}
			f, _ := types.NewMethodSet(T).Lookup(m.Pkg(), m.Name()).Obj().(*types.Func)
			if f != nil && f.Pkg() != nil && r.localPkgs[f.Pkg().Path()] {
				out = append(out, f.Origin())
			}
			break
		}
	}
	r.impls[m] = out
	return out
}

// parkVia is why a function may park: a direct park (via nil), or a
// call at pos to a function that may.
type parkVia struct {
	pos  token.Pos
	what string
	via  *types.Func
}

// mayPark closes the direct parks over the call graph, a level at a
// time so each witness chain is a shortest one. A site a directive
// covers contributes nothing; cut lists those sites.
func (f *lockFacts) mayPark(p *Pass) (may map[*types.Func]parkVia, cut map[token.Pos]string) {
	cut = map[token.Pos]string{}
	excused := func(pos token.Pos, what string) bool {
		ignored := p.Ignored(pos)
		if ignored {
			cut[pos] = what
		}
		return ignored
	}
	may = map[*types.Func]parkVia{}
	for _, fn := range f.funcs {
		parks := f.sums[fn].parks
		for _, pos := range slices.Sorted(maps.Keys(parks)) {
			if !excused(pos, parks[pos]) {
				may[fn] = parkVia{pos: pos, what: parks[pos]}
				break
			}
		}
	}
	for level := may; len(level) > 0; {
		next := map[*types.Func]parkVia{}
		for _, fn := range f.funcs {
			if _, ok := may[fn]; ok {
				continue
			}
			for callee, site := range f.sums[fn].calls {
				if _, parks := level[callee]; !parks || excused(site.pos, "call to "+funcDisplay(callee)) {
					continue
				}
				cur, ok := next[fn]
				if !ok || site.pos < cur.pos || site.pos == cur.pos && funcDisplay(callee) < funcDisplay(cur.via) {
					next[fn] = parkVia{pos: site.pos, via: callee}
				}
			}
		}
		maps.Copy(may, next)
		level = next
	}
	return may, cut
}

// finishLockAcrossSend adds to the direct findings every sync lock
// held across a call that may park, with the chain down to the park,
// and reports them. A directive that cut a summary without silencing a
// finding on its own line is recorded as suppressing the cut, so it
// counts as matched and -ignored shows what it vouches for.
func finishLockAcrossSend(p *Pass) {
	f := p.res.locks
	if f == nil {
		return
	}
	may, cut := f.mayPark(p)
	for pos, hc := range f.heldCalls {
		h, ok := firstSync(hc.held)
		if !ok {
			continue
		}
		hops, best := 0, ""
		for _, c := range hc.callees {
			if _, parks := may[c]; !parks {
				continue
			}
			if n, text := witness(p, may, c); best == "" || n < hops || n == hops && text < best {
				hops, best = n, text
			}
		}
		if best != "" {
			f.findings[pos] = fmt.Sprintf("call may park while holding %s (locked at line %d): %s", h.recv, p.Fset.Position(h.pos).Line, best)
		}
	}
	for _, pos := range slices.Sorted(maps.Keys(f.findings)) {
		p.Reportf(pos, "%s", f.findings[pos])
	}
	for _, pos := range slices.Sorted(maps.Keys(cut)) {
		if _, reported := f.findings[pos]; !reported {
			p.Reportf(pos, "%s: cut from the may-park summary of its function", cut[pos])
		}
	}
}

// witness renders the call chain from c down to the park that makes it
// one that may park, and counts its functions.
func witness(p *Pass, may map[*types.Func]parkVia, c *types.Func) (int, string) {
	names := []string{funcDisplay(c)}
	v := may[c]
	for ; v.via != nil; v = may[v.via] {
		names = append(names, funcDisplay(v.via))
	}
	return len(names), fmt.Sprintf("%s: %s at %s", strings.Join(names, " → "), v.what, p.Fset.Position(v.pos))
}

// recvType returns fn's receiver type, nil for a plain function.
func recvType(fn *types.Func) types.Type {
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		return r.Type()
	}
	return nil
}

// namedOf returns the (possibly pointed-to) named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// mutexType reports whether t (or what it points to) is one of the
// mutual-exclusion types the lock checks track, and whether it is the
// vclock.Mutex, whose waiters park through the clock.
func mutexType(t types.Type) (parks, ok bool) {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false, false
	}
	switch pkg, name := n.Obj().Pkg(), n.Obj().Name(); {
	case pkg.Path() == "sync" && (name == "Mutex" || name == "RWMutex"):
		return false, true
	case pkg.Name() == "vclock" && name == "Mutex":
		return true, true
	}
	return false, false
}

// parkingCall classifies the calls that park the caller directly:
// sync.WaitGroup.Wait, time.Sleep, the vclock primitives, and (isWait)
// Cond.Wait of either package, which parks having released its locker.
func parkingCall(fn *types.Func) (what string, isWait bool) {
	recv := ""
	if n := namedOf(recvType(fn)); n != nil {
		recv = n.Obj().Name()
	}
	pkg, name := fn.Pkg(), fn.Name()
	switch {
	case (pkg.Path() == "sync" || pkg.Name() == "vclock") && recv == "Cond" && name == "Wait":
		return pkg.Name() + ".Cond.Wait", true
	case pkg.Path() == "sync" && recv == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", false
	case pkg.Path() == "time" && name == "Sleep":
		return "time.Sleep", false
	case pkg.Name() == "vclock" && (name == "Sleep" || name == "SleepUntil" ||
		recv == "Mailbox" && (name == "Send" || name == "Recv") ||
		recv == "WaitGroup" && name == "Wait"):
		return "vclock." + recv + "." + name, false
	}
	return "", false
}
