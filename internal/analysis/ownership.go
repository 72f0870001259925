package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// blockOwnershipCheck is the path-sensitive block-discipline verifier:
// it tracks every pooled-block value (a pointer type carrying a Free
// method — *block.Block in this module — and raw block.GetBytes
// buffers) from acquisition to its sink, along every path of the
// function's CFG. A sink is Free, one of the Put-family transfers, or
// a call through a parameter the callee declared with //netvet:owns.
// It reports:
//
//   - a block freed or transferred twice along some path,
//   - any use of a block (or of a buffer view obtained from it via
//     Bytes()) after its ownership ended,
//   - a block still owned at a return — the early-return/error-path
//     leak — when the function does release it on another path,
//   - a release that a deferred release will repeat at exit.
//
// Values that escape (returned, stored, sent, captured) leave the
// analysis; Ref() marks refcounted sharing, which also ends it.
// The leak report deliberately requires a release somewhere in the
// same function: a function that never releases is either a
// constructor handing the block out or a borrower, and both are the
// caller's business.
var blockOwnershipCheck = &Check{
	Name: "block-ownership",
	Doc:  "pooled block freed twice, used after transfer, or leaked on an early return",
	Run:  runBlockOwnership,
}

// releaseNames are the implicitly-owning callees of the block
// contract; Free frees its receiver, the Put family consumes its
// block (or raw-buffer) arguments.
var releaseNames = map[string]bool{
	"Free":     true,
	"Put":      true,
	"PutNext":  true,
	"PutBytes": true,
}

// ownBits is the per-variable abstract state.
type ownBits uint8

const (
	bitOwned    ownBits = 1 << iota // holds a reference it must release
	bitFreed                        // released via Free on some path
	bitXfer                         // ownership transferred on some path
	bitDeferRel                     // a deferred release is registered
	bitEscaped                      // stored/returned/shared: not ours to judge
	bitUsed                         // the buffer was touched on this path
)

func (b ownBits) released() bool { return b&(bitFreed|bitXfer) != 0 }

// ownEvent is one ownership-relevant action inside a CFG node, in
// source order.
type ownEvent struct {
	kind evKind
	obj  types.Object
	src  types.Object // alias target for evAlias
	pos  token.Pos
	free bool // for evRelease/evDeferRelease: Free (true) vs transfer
}

type evKind int

const (
	evUse evKind = iota
	evAcquire
	evAlias
	evRebind
	evRelease
	evDeferRelease
	evEscape
	evReturn
)

// ownState is the dataflow state: ownership bits per tracked variable
// and the live buffer-view aliases. Treated as immutable; transfer
// copies before writing.
type ownState struct {
	bits  map[types.Object]ownBits
	alias map[types.Object]types.Object
}

func (s *ownState) clone() *ownState {
	c := &ownState{
		bits:  make(map[types.Object]ownBits, len(s.bits)),
		alias: make(map[types.Object]types.Object, len(s.alias)),
	}
	for k, v := range s.bits {
		c.bits[k] = v
	}
	for k, v := range s.alias {
		c.alias[k] = v
	}
	return c
}

// ownFunc is the per-function analysis context.
type ownFunc struct {
	p     *Pass
	cands map[types.Object]bool
	// Lexically-first positions, for diagnostic cross-references.
	freeAt, xferAt, deferAt, acqAt map[types.Object]token.Pos
	events                         map[ast.Node][]ownEvent
	claimed                        map[*ast.Ident]bool
	entryOwned                     []types.Object // //netvet:owns params of this function
	emitted                        map[string]bool
}

// reportf deduplicates: a variable mentioned twice in one statement
// produces one diagnostic, not two.
func (o *ownFunc) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if o.emitted[key] {
		return
	}
	o.emitted[key] = true
	o.p.Reportf(pos, "%s", msg)
}

func runBlockOwnership(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			checkFuncOwnership(p, fd.Body, fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFuncOwnership(p, lit.Body, nil)
				}
				return true
			})
		}
	}
}

func checkFuncOwnership(p *Pass, body *ast.BlockStmt, fn *types.Func) {
	o := &ownFunc{
		p:       p,
		cands:   map[types.Object]bool{},
		freeAt:  map[types.Object]token.Pos{},
		xferAt:  map[types.Object]token.Pos{},
		deferAt: map[types.Object]token.Pos{},
		acqAt:   map[types.Object]token.Pos{},
		events:  map[ast.Node][]ownEvent{},
		claimed: map[*ast.Ident]bool{},
		emitted: map[string]bool{},
	}
	o.collectCandidates(body, fn)
	if len(o.cands) == 0 {
		return
	}

	g := BuildCFG(body)
	for _, blk := range g.Blocks {
		if blk == g.Exit {
			continue // deferred releases are modeled by bitDeferRel
		}
		for _, n := range blk.Nodes {
			o.events[n] = o.extract(n)
		}
	}
	for _, evs := range o.events {
		for _, ev := range evs {
			switch ev.kind {
			case evAcquire:
				if _, ok := o.acqAt[ev.obj]; !ok {
					o.acqAt[ev.obj] = ev.pos
				}
			case evRelease:
				at := o.xferAt
				if ev.free {
					at = o.freeAt
				}
				if prev, ok := at[ev.obj]; !ok || ev.pos < prev {
					at[ev.obj] = ev.pos
				}
			case evDeferRelease:
				if prev, ok := o.deferAt[ev.obj]; !ok || ev.pos < prev {
					o.deferAt[ev.obj] = ev.pos
				}
			}
		}
	}

	in := Solve(g, o)

	// Reporting replay: one pass per reachable block over the
	// converged states.
	for _, blk := range g.Blocks {
		s, ok := in[blk].(*ownState)
		if !ok || blk == g.Exit {
			continue
		}
		for _, n := range blk.Nodes {
			s = o.apply(s, n, true)
		}
		if blk == g.FallOff {
			o.leakCheck(s, body.End(), true)
		}
	}
}

// Entry, Transfer, Join, Equal implement Problem; EnterBlock adds
// branch-edge pruning.

// EnterBlock drops a candidate known to be nil on this branch arm:
// entering `if msg == nil`'s then arm (or `msg != nil`'s else arm)
// refutes ownership, killing the abstract paths where a conditionally
// acquired block flows into the branch that only runs without it.
func (o *ownFunc) EnterBlock(b *BBlock, st State) State {
	if b.Cond == nil {
		return st
	}
	obj, eqNil := o.nilTest(b.Cond)
	if obj == nil || (eqNil != b.CondTaken) {
		return st
	}
	s := st.(*ownState)
	if _, tracked := s.bits[obj]; !tracked {
		return st
	}
	s = s.clone()
	delete(s.bits, obj)
	return s
}

// nilTest matches `x == nil` / `x != nil` over a candidate x,
// returning x and whether equality (rather than inequality) was
// tested.
func (o *ownFunc) nilTest(e ast.Expr) (types.Object, bool) {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	var id *ast.Ident
	switch {
	case isNilIdent(be.Y):
		id, _ = be.X.(*ast.Ident)
	case isNilIdent(be.X):
		id, _ = be.Y.(*ast.Ident)
	}
	if id == nil {
		return nil, false
	}
	obj := o.objOf(id)
	if obj == nil || !o.cands[obj] {
		return nil, false
	}
	return obj, be.Op == token.EQL
}

func (o *ownFunc) Entry() State {
	s := &ownState{bits: map[types.Object]ownBits{}, alias: map[types.Object]types.Object{}}
	for _, obj := range o.entryOwned {
		// An //netvet:owns parameter arrives live: the caller handed
		// over a real block, so a leak needs no further use evidence.
		s.bits[obj] = bitOwned | bitUsed
	}
	return s
}

func (o *ownFunc) Transfer(b *BBlock, n ast.Node, st State) State {
	if b.Kind == "exit" {
		return st
	}
	return o.apply(st.(*ownState), n, false)
}

func (o *ownFunc) Join(a, b State) State {
	x, y := a.(*ownState), b.(*ownState)
	j := x.clone()
	for obj, bits := range y.bits {
		j.bits[obj] |= bits
	}
	for obj, src := range y.alias {
		if cur, ok := j.alias[obj]; ok && cur != src {
			delete(j.alias, obj) // conflicting views: stop judging
			continue
		}
		j.alias[obj] = src
	}
	return j
}

func (o *ownFunc) Equal(a, b State) bool {
	x, y := a.(*ownState), b.(*ownState)
	if len(x.bits) != len(y.bits) || len(x.alias) != len(y.alias) {
		return false
	}
	for obj, bits := range x.bits {
		if y.bits[obj] != bits {
			return false
		}
	}
	for obj, src := range x.alias {
		if y.alias[obj] != src {
			return false
		}
	}
	return true
}

// apply runs one node's events over the state; when report is set
// (the post-convergence replay) violations are emitted.
func (o *ownFunc) apply(s *ownState, n ast.Node, report bool) *ownState {
	evs := o.events[n]
	if len(evs) == 0 {
		return s
	}
	s = s.clone()
	for _, ev := range evs {
		o.applyEvent(s, ev, report)
	}
	return s
}

func (o *ownFunc) applyEvent(s *ownState, ev ownEvent, report bool) {
	line := func(pos token.Pos) int { return o.p.Fset.Position(pos).Line }
	name := func(obj types.Object) string { return obj.Name() }
	switch ev.kind {
	case evAcquire:
		s.bits[ev.obj] = bitOwned
		delete(s.alias, ev.obj)
	case evAlias:
		s.alias[ev.obj] = ev.src
		delete(s.bits, ev.obj)
	case evRebind:
		delete(s.bits, ev.obj)
		delete(s.alias, ev.obj)
	case evEscape:
		if src, isAlias := s.alias[ev.obj]; isAlias {
			// Returning or storing a view of a released buffer hands
			// out recycled bytes: an escape of an alias is a use.
			bits := s.bits[src]
			if report && bits.released() && bits&bitEscaped == 0 {
				o.reportf(ev.pos, "%s aliases %s's buffer and is used after %s is released (the pool may have recycled it)",
					name(ev.obj), name(src), name(src))
			}
			return
		}
		s.bits[ev.obj] |= bitEscaped
	case evRelease:
		cur := s.bits[ev.obj]
		if report && cur&bitEscaped == 0 {
			switch {
			case cur&bitFreed != 0 && ev.free:
				o.reportf(ev.pos, "%s freed twice (already freed on a path, at line %d)", name(ev.obj), line(o.freeAt[ev.obj]))
			case cur&bitFreed != 0:
				o.reportf(ev.pos, "%s ownership transferred after it was freed (freed at line %d)", name(ev.obj), line(o.freeAt[ev.obj]))
			case cur&bitXfer != 0 && ev.free:
				o.reportf(ev.pos, "%s freed after its ownership was transferred (transferred at line %d)", name(ev.obj), line(o.xferAt[ev.obj]))
			case cur&bitXfer != 0:
				o.reportf(ev.pos, "%s ownership transferred twice (already transferred on a path, at line %d)", name(ev.obj), line(o.xferAt[ev.obj]))
			case cur&bitDeferRel != 0:
				o.reportf(ev.pos, "%s released here and again by its deferred release (registered at line %d)", name(ev.obj), line(o.deferAt[ev.obj]))
			}
		}
		bit := bitXfer
		if ev.free {
			bit = bitFreed
		}
		s.bits[ev.obj] = (s.bits[ev.obj] | bit) &^ bitOwned
	case evDeferRelease:
		cur := s.bits[ev.obj]
		if report && cur&bitEscaped == 0 && cur.released() {
			o.reportf(ev.pos, "deferred release of %s, which was already released (at line %d)",
				name(ev.obj), line(o.firstReleaseAt(ev.obj)))
		}
		s.bits[ev.obj] |= bitDeferRel
	case evUse:
		if src, isAlias := s.alias[ev.obj]; isAlias {
			bits := s.bits[src]
			if report && bits.released() && bits&bitEscaped == 0 {
				o.reportf(ev.pos, "%s aliases %s's buffer and is used after %s is released (the pool may have recycled it)",
					name(ev.obj), name(src), name(src))
			}
			s.bits[src] |= bitUsed
			return
		}
		cur := s.bits[ev.obj]
		s.bits[ev.obj] = cur | bitUsed
		if report && cur.released() && cur&bitEscaped == 0 {
			if cur&bitFreed != 0 {
				o.reportf(ev.pos, "use of %s after it was freed (freed at line %d)", name(ev.obj), line(o.freeAt[ev.obj]))
			} else {
				o.reportf(ev.pos, "use of %s after its ownership was transferred (transferred at line %d)", name(ev.obj), line(o.xferAt[ev.obj]))
			}
		}
	case evReturn:
		if report {
			o.leakCheck(s, ev.pos, true)
		}
	}
}

func (o *ownFunc) firstReleaseAt(obj types.Object) token.Pos {
	f, fok := o.freeAt[obj]
	x, xok := o.xferAt[obj]
	switch {
	case fok && (!xok || f < x):
		return f
	case xok:
		return x
	}
	return token.NoPos
}

// leakCheck reports every variable still owned at a function exit,
// provided the function does release it on some other path — the
// early-return leak shape.
func (o *ownFunc) leakCheck(s *ownState, pos token.Pos, report bool) {
	if !report {
		return
	}
	var objs []types.Object
	for obj, bits := range s.bits {
		// An owned block that was never touched on this path is the
		// `b, err := Get(); if err != nil { return }` shape: b is nil
		// there, so demand use evidence before calling it a leak.
		if bits&bitOwned != 0 && bits&bitUsed != 0 && bits&(bitDeferRel|bitEscaped) == 0 {
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		rel := o.firstReleaseAt(obj)
		if d, ok := o.deferAt[obj]; ok && (rel == token.NoPos || d < rel) {
			rel = d
		}
		if rel == token.NoPos {
			continue // never released anywhere: a constructor or borrower
		}
		o.reportf(pos, "%s may leak: still owned on this return path (released on another path at line %d)",
			obj.Name(), o.p.Fset.Position(rel).Line)
	}
}
