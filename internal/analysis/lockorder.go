package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// lockOrderCheck builds the whole-module lock acquisition graph and
// reports cycles. Locks are keyed by (type, field) — every instance
// of Conv.mu is one node, matching how a fine-grained-locking kernel
// reasons about hierarchy — plus package-level mutex variables. The
// held-lock solve in locks.go harvests every region where a lock is
// held: a second lock acquired inside the region is a direct edge, and
// a call to a module function inside the region contributes edges to
// every lock that callee (transitively) acquires. Finish assembles the
// graph and reports each cycle once, with the witness for both
// directions — the two code paths that, run concurrently, deadlock.
// Same-key edges (two instances of one type) are not drawn: the keying
// cannot tell self from sibling, and lock-across-send reports them.
//
// This is the static form of the Listen/Close inversion the cyclone
// package once shipped: Listen took device-then-conversation,
// teardown took conversation-then-device, and only a loaded machine
// wedged.
var lockOrderCheck = &Check{
	Name:   "lock-order",
	Doc:    "cycle in the module-wide lock acquisition order graph",
	Run:    collectLocks,
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

// addEdge keeps the lexically first witness of each ordering.
func (f *lockFacts) addEdge(from, to string, w lockWitness) {
	if cur, ok := f.edges[[2]string{from, to}]; !ok || w.pos < cur.pos || w.pos == cur.pos && w.via < cur.via {
		f.edges[[2]string{from, to}] = w
	}
}

// lockKey names the lock x identifies, keyed by (type, field) for
// mutex fields, by (package, var) for package-level mutexes, and by
// the owning type alone for an embedded mutex. Local mutex variables
// return "" — they have no cross-function identity.
func (l *lockSolve) lockKey(x ast.Expr) string {
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
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
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
	facts := p.res.locks
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
		for k, pos := range facts.sums[fn].acquires {
			trans[fn][k] = acq{pos: pos, in: fn}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range facts.funcs {
			for callee, site := range facts.sums[fn].calls {
				if site.iface {
					continue
				}
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
	for pos, hc := range facts.heldCalls {
		if hc.iface {
			continue
		}
		for _, h := range hc.held {
			for _, callee := range hc.callees {
				for k, a := range trans[callee] {
					if h.key != "" && k != h.key {
						facts.addEdge(h.key, k, lockWitness{pos: pos, via: funcDisplay(a.in), lockPos: a.pos})
					}
				}
			}
		}
	}

	adj := map[string]map[string]lockWitness{}
	for e, w := range facts.edges {
		if adj[e[0]] == nil {
			adj[e[0]] = map[string]lockWitness{}
		}
		adj[e[0]][e[1]] = w
	}

	keys := slices.Sorted(maps.Keys(adj))

	// Two-cycles: the common deadlock pair, reported once per pair at
	// the later of the two witnesses (the inversion).
	inTwoCycle := map[string]bool{}
	for _, a := range keys {
		for _, b := range slices.Sorted(maps.Keys(adj[a])) {
			wab, wba := adj[a][b], adj[b][a]
			if a >= b || wba.pos == token.NoPos {
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
		}
	}

	// Longer cycles, each found once, from its smallest key: the first
	// path back to it through keys that sort after it. Keys on a
	// two-cycle are left out; that report already names them.
	for _, start := range keys {
		cyc := cycleFrom(start, adj, inTwoCycle)
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
		if len(cyc) > 0 {
			p.Reportf(lastW.pos, "lock-order cycle: %s", strings.Join(parts, "; "))
		}
	}
}

// cycleFrom returns a cycle through start whose other keys all sort
// after it and are not in skip, as an ordered key list, or nil.
func cycleFrom(start string, adj map[string]map[string]lockWitness, skip map[string]bool) []string {
	var path []string
	seen := map[string]bool{}
	var dfs func(v string) bool
	dfs = func(v string) bool {
		path = append(path, v)
		seen[v] = true
		for _, w := range slices.Sorted(maps.Keys(adj[v])) {
			if w == start || w > start && !skip[w] && !seen[w] && dfs(w) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if skip[start] || !dfs(start) {
		return nil
	}
	return path
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
