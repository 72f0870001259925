package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderCheck builds the whole-module lock acquisition graph and
// reports cycles. Locks are keyed by (type, field) — every instance
// of Conv.mu is one node, matching how a fine-grained-locking kernel
// reasons about hierarchy — plus package-level mutex variables. The
// per-package Run harvests, via the CFG/dataflow engine, every region
// where a lock is held: a second lock acquired inside the region is a
// direct edge, and a call to a module function inside the region
// contributes edges to every lock that callee (transitively)
// acquires. Finish assembles the graph and reports each cycle once,
// with the witness for both directions — the two code paths that, run
// concurrently, deadlock. Same-key edges (two instances of one type)
// are not reported: the keying cannot tell self from sibling.
//
// This is the static form of the Listen/Close inversion the cyclone
// package once shipped: Listen took device-then-conversation,
// teardown took conversation-then-device, and only a loaded machine
// wedged.
var lockOrderCheck = &Check{
	Name:   "lock-order",
	Doc:    "cycle in the module-wide lock acquisition order graph",
	Run:    runLockOrderCollect,
	Finish: finishLockOrder,
}

// lockWitness is one observed ordering: to was acquired at pos while
// from was held; via names the call chain when the acquisition is
// inside a callee.
type lockWitness struct {
	pos     token.Pos
	via     string    // callee display name, "" for a direct edge
	lockPos token.Pos // where the inner lock is taken (== pos when direct)
}

// lockFacts accumulates across packages for Finish.
type lockFacts struct {
	edges     map[[2]string][]lockWitness
	heldCalls []heldCall
	acquires  map[*types.Func]map[string]token.Pos
	calls     map[*types.Func]map[*types.Func]bool
	funcs     []*types.Func // deterministic iteration order
}

type heldCall struct {
	held   string
	hpos   token.Pos
	callee *types.Func
	pos    token.Pos
}

func newLockFacts() any {
	return &lockFacts{
		edges:    map[[2]string][]lockWitness{},
		acquires: map[*types.Func]map[string]token.Pos{},
		calls:    map[*types.Func]map[*types.Func]bool{},
	}
}

// heldState is the dataflow state: the lock keys that may be held,
// with the position of their acquisition. Immutable.
type heldState map[string]token.Pos

func (s heldState) clone() heldState {
	c := make(heldState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// lockScanCFG analyzes one function body.
type lockScanCFG struct {
	p     *Pass
	facts *lockFacts
	fn    *types.Func // nil inside a function literal
}

func runLockOrderCollect(p *Pass) {
	facts := p.Facts(newLockFacts).(*lockFacts)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn != nil {
				if _, seen := facts.acquires[fn]; !seen {
					facts.acquires[fn] = map[string]token.Pos{}
					facts.calls[fn] = map[*types.Func]bool{}
					facts.funcs = append(facts.funcs, fn)
				}
			}
			(&lockScanCFG{p: p, facts: facts, fn: fn}).run(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					// A literal's body runs later or elsewhere: its
					// regions contribute direct edges, but its
					// acquisitions are not attributed to the
					// enclosing function's call summary.
					(&lockScanCFG{p: p, facts: facts}).run(lit.Body)
				}
				return true
			})
		}
	}
}

// run solves the held-set problem over the body. Transfer records
// facts idempotently into maps as the solver converges, so no
// separate reporting replay is needed.
func (l *lockScanCFG) run(body *ast.BlockStmt) {
	Solve(BuildCFG(body), l)
}

func (l *lockScanCFG) Entry() State { return heldState{} }
func (l *lockScanCFG) Join(a, b State) State {
	x, y := a.(heldState), b.(heldState)
	j := x.clone()
	for k, pos := range y {
		if cur, ok := j[k]; !ok || pos < cur {
			j[k] = pos
		}
	}
	return j
}
func (l *lockScanCFG) Equal(a, b State) bool {
	x, y := a.(heldState), b.(heldState)
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if y[k] != v {
			return false
		}
	}
	return true
}

func (l *lockScanCFG) Transfer(b *BBlock, n ast.Node, st State) State {
	if b.Kind == "exit" {
		return st // deferred unlocks release only at return
	}
	switch h := n.(type) {
	case *SelectHeader:
		return st // comm clauses are lowered into the case blocks
	case *RangeHeader:
		n = h.Range.X // only the ranged expression evaluates here
	}
	s := st.(heldState)
	out := s
	mutated := false
	mutable := func() heldState {
		if !mutated {
			out = out.clone()
			mutated = true
		}
		return out
	}

	inspectSkippingFuncLits(n, func(m ast.Node) bool {
		if ds, isDefer := m.(*ast.DeferStmt); isDefer {
			// Deferred calls run at return: a deferred Unlock keeps
			// the region open, and a deferred call's lock activity is
			// outside this region.
			l.recordCall(ds.Call) // still part of the call graph
			return false
		}
		if _, isGo := m.(*ast.GoStmt); isGo {
			// A spawned goroutine does not inherit the caller's held
			// locks, and its acquisitions happen on its own thread:
			// neither a held-call nor a call-graph edge.
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, method, ok := l.mutexCall(call); ok && key != "" {
			switch method {
			case "Lock", "RLock":
				for held := range out {
					if held != key {
						l.facts.edges[[2]string{held, key}] = append(l.facts.edges[[2]string{held, key}],
							lockWitness{pos: call.Pos(), lockPos: call.Pos()})
					}
				}
				if l.fn != nil {
					if _, seen := l.facts.acquires[l.fn][key]; !seen {
						l.facts.acquires[l.fn][key] = call.Pos()
					}
				}
				mutable()[key] = call.Pos()
			case "Unlock", "RUnlock":
				if _, held := out[key]; held {
					delete(mutable(), key)
				}
			}
			return true
		}
		if callee := l.moduleCallee(call); callee != nil {
			l.recordCall(call)
			for held, hpos := range out {
				l.facts.heldCalls = append(l.facts.heldCalls, heldCall{held: held, hpos: hpos, callee: callee, pos: call.Pos()})
			}
		}
		return true
	})
	return out
}

// recordCall adds an edge to the module call graph.
func (l *lockScanCFG) recordCall(call *ast.CallExpr) {
	if l.fn == nil {
		return
	}
	if callee := l.moduleCallee(call); callee != nil {
		l.facts.calls[l.fn][callee] = true
	}
}

// moduleCallee resolves a call to a module-local named function.
func (l *lockScanCFG) moduleCallee(call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = l.p.Pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = l.p.Pkg.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil || !l.p.res.localPkgs[fn.Pkg().Path()] {
		return nil
	}
	return fn
}

// mutexCall resolves a call to (R)Lock/(R)Unlock on a mutex the lock
// checks track (sync's or vclock's) and returns the lock's graph key.
func (l *lockScanCFG) mutexCall(call *ast.CallExpr) (key, method string, ok bool) {
	sel, _, ok := l.p.mutexMethod(call)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return l.lockKey(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// lockKey names the lock x identifies, keyed by (type, field) for
// mutex fields, by (package, var) for package-level mutexes, and by
// the owning type alone for an embedded mutex. Local mutex variables
// return "" — they have no cross-function identity.
func (l *lockScanCFG) lockKey(x ast.Expr) string {
	info := l.p.Pkg.Info
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// y.mu: key by y's named type and the field name.
		if t := typeOfExpr(info, x.X); t != "" {
			return t + "." + x.Sel.Name
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if v, okVar := obj.(*types.Var); okVar && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name() // package-level mutex
		}
	}
	// Embedded promotion (c.Lock() with c embedding sync.Mutex, or
	// s.conv.Lock() through a selector): key by the embedding type.
	return typeOfExpr(info, x)
}

// typeOfExpr returns the pkg-qualified name of e's (deref'd) named
// type, or "".
func typeOfExpr(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return typeKey(tv.Type)
}

func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	if _, isMutex := mutexType(n); isMutex || n.Obj().Pkg().Path() == "sync" {
		return "" // a bare mutex value has no useful identity
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

// finishLockOrder closes acquisition sets over the call graph, builds
// the lock graph, and reports every cycle with both witnesses.
func finishLockOrder(p *Pass) {
	facts, _ := p.Facts(newLockFacts).(*lockFacts)
	if facts == nil {
		return
	}

	// Transitive acquires per function, to a fixed point.
	type acq struct {
		pos token.Pos
		in  *types.Func
	}
	trans := map[*types.Func]map[string]acq{}
	for _, fn := range facts.funcs {
		trans[fn] = map[string]acq{}
		for k, pos := range facts.acquires[fn] {
			trans[fn][k] = acq{pos: pos, in: fn}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range facts.funcs {
			for callee := range facts.calls[fn] {
				for k, a := range trans[callee] {
					if _, ok := trans[fn][k]; !ok {
						trans[fn][k] = a
						changed = true
					}
				}
			}
		}
	}

	// Call-derived edges.
	for _, hc := range facts.heldCalls {
		for k, a := range trans[hc.callee] {
			if k == hc.held {
				continue
			}
			facts.edges[[2]string{hc.held, k}] = append(facts.edges[[2]string{hc.held, k}],
				lockWitness{pos: hc.pos, via: funcDisplay(a.in), lockPos: a.pos})
		}
	}

	// Best (lexically first) witness per edge.
	adj := map[string]map[string]lockWitness{}
	for e, ws := range facts.edges {
		best := ws[0]
		for _, w := range ws[1:] {
			if w.pos < best.pos {
				best = w
			}
		}
		if adj[e[0]] == nil {
			adj[e[0]] = map[string]lockWitness{}
		}
		if cur, ok := adj[e[0]][e[1]]; !ok || best.pos < cur.pos {
			adj[e[0]][e[1]] = best
		}
	}

	var keys []string
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Two-cycles: the common deadlock pair, reported once per pair at
	// the later of the two witnesses (the inversion).
	reported := map[string]bool{}
	inTwoCycle := map[string]bool{}
	for _, a := range keys {
		var succs []string
		for b := range adj[a] {
			succs = append(succs, b)
		}
		sort.Strings(succs)
		for _, b := range succs {
			if a >= b {
				continue
			}
			wab, okab := adj[a][b]
			wba, okba := adj[b][a]
			if !okab || !okba {
				continue
			}
			inTwoCycle[a], inTwoCycle[b] = true, true
			late, early := wab, wba
			lateEdge, earlyEdge := [2]string{a, b}, [2]string{b, a}
			if wba.pos > wab.pos {
				late, early = wba, wab
				lateEdge, earlyEdge = earlyEdge, lateEdge
			}
			p.Reportf(late.pos, "lock-order cycle: %s acquired while holding %s%s, but %s is acquired while holding %s at %s%s",
				lateEdge[1], lateEdge[0], viaText(p, late),
				earlyEdge[1], earlyEdge[0], p.Fset.Position(early.pos), viaText(p, early))
			reported[a+"→"+b] = true
		}
	}

	// Longer cycles without a two-cycle inside: find one rotation per
	// strongly connected component and report it.
	for _, scc := range tarjanSCC(keys, adj) {
		if len(scc) < 2 {
			continue
		}
		hasTwo := false
		for _, k := range scc {
			if inTwoCycle[k] {
				hasTwo = true
			}
		}
		if hasTwo {
			continue
		}
		cyc := findCycle(scc, adj)
		if len(cyc) == 0 {
			continue
		}
		var parts []string
		var lastW lockWitness
		for i, k := range cyc {
			next := cyc[(i+1)%len(cyc)]
			w := adj[k][next]
			parts = append(parts, fmt.Sprintf("%s -> %s at %s%s", k, next, p.Fset.Position(w.pos), viaText(p, w)))
			if w.pos > lastW.pos {
				lastW = w
			}
		}
		p.Reportf(lastW.pos, "lock-order cycle: %s", strings.Join(parts, "; "))
	}
}

func viaText(p *Pass, w lockWitness) string {
	if w.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via %s, locking at %s)", w.via, p.Fset.Position(w.lockPos))
}

func funcDisplay(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if t := typeKey(sig.Recv().Type()); t != "" {
			return t + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// tarjanSCC computes strongly connected components over the key graph.
func tarjanSCC(keys []string, adj map[string]map[string]lockWitness) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	return sccs
}

// findCycle returns one cycle within an SCC, as an ordered key list.
func findCycle(scc []string, adj map[string]map[string]lockWitness) []string {
	in := map[string]bool{}
	for _, k := range scc {
		in[k] = true
	}
	start := scc[0]
	var path []string
	seen := map[string]bool{}
	var dfs func(v string) []string
	dfs = func(v string) []string {
		path = append(path, v)
		seen[v] = true
		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if !in[w] {
				continue
			}
			if w == start && len(path) > 1 {
				out := make([]string, len(path))
				copy(out, path)
				return out
			}
			if !seen[w] {
				if c := dfs(w); c != nil {
					return c
				}
			}
		}
		path = path[:len(path)-1]
		return nil
	}
	return dfs(start)
}
