package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// blockOwnershipCheck finds the early-return leak of a pooled block: a
// block (a pointer type carrying a Free method — *block.Block in this
// module — or a raw block.GetBytes buffer) that a function still owns
// at a return on one path of its CFG, although it releases the block
// on another. A release is Free, one of the Put-family transfers, or a
// call through a parameter the callee declared with //netvet:owns, and
// an //netvet:owns parameter arrives owned.
//
// This is the one block bug no runtime gate sees: a leaked buffer falls
// to the garbage collector and only the pool misses it, while a double
// Free panics in the block package and a use after transfer is a race
// the race detector reports. Values that escape (returned, stored,
// sent, captured) leave the analysis; Ref() marks refcounted sharing,
// which also ends it. A function that never releases a block is either
// a constructor handing it out or a borrower, and both are the caller's
// business.
var blockOwnershipCheck = &Check{
	Name: "block-ownership",
	Doc:  "pooled block leaked on an early return",
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
	bitDeferRel                     // a deferred release is registered
	bitEscaped                      // stored/returned/shared: not ours to judge
	bitUsed                         // the buffer was touched on this path
)

// ownEvent is one ownership-relevant action inside a CFG node, in
// source order.
type ownEvent struct {
	kind evKind
	obj  types.Object
	pos  token.Pos
}

type evKind int

const (
	evUse evKind = iota
	evAcquire
	evRebind
	evRelease
	evDeferRelease
	evEscape
	evReturn
)

// ownState is the dataflow state: ownership bits per tracked variable.
// Treated as immutable; transfer copies before writing.
type ownState map[types.Object]ownBits

// ownFunc is the per-function analysis context.
type ownFunc struct {
	p          *Pass
	cands      map[types.Object]bool
	relAt      map[types.Object]token.Pos // lexically first release, for the message
	events     map[ast.Node][]ownEvent
	claimed    map[*ast.Ident]bool
	entryOwned []types.Object // //netvet:owns params of this function
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
		relAt:   map[types.Object]token.Pos{},
		events:  map[ast.Node][]ownEvent{},
		claimed: map[*ast.Ident]bool{},
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
			for _, ev := range o.events[n] {
				if ev.kind != evRelease && ev.kind != evDeferRelease {
					continue
				}
				if prev, ok := o.relAt[ev.obj]; !ok || ev.pos < prev {
					o.relAt[ev.obj] = ev.pos
				}
			}
		}
	}

	in := Solve(g, o)

	// Reporting replay: one pass per reachable block over the
	// converged states, so iteration order cannot duplicate or drop a
	// finding.
	for _, blk := range g.Blocks {
		s, ok := in[blk].(ownState)
		if !ok || blk == g.Exit {
			continue
		}
		for _, n := range blk.Nodes {
			s = o.apply(s, n, true)
		}
		if blk == g.FallOff {
			o.leakCheck(s, body.End())
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
	s := st.(ownState)
	if _, tracked := s[obj]; !tracked {
		return st
	}
	s = maps.Clone(s)
	delete(s, obj)
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
	s := ownState{}
	for _, obj := range o.entryOwned {
		// An //netvet:owns parameter arrives live: the caller handed
		// over a real block, so a leak needs no further use evidence.
		s[obj] = bitOwned | bitUsed
	}
	return s
}

func (o *ownFunc) Transfer(b *BBlock, n ast.Node, st State) State {
	if b.Kind == "exit" {
		return st
	}
	return o.apply(st.(ownState), n, false)
}

func (o *ownFunc) Join(a, b State) State {
	j := maps.Clone(a.(ownState))
	for obj, bits := range b.(ownState) {
		j[obj] |= bits
	}
	return j
}

func (o *ownFunc) Equal(a, b State) bool { return maps.Equal(a.(ownState), b.(ownState)) }

// apply runs one node's events over the state; when report is set
// (the post-convergence replay) a return that leaks is reported.
func (o *ownFunc) apply(s ownState, n ast.Node, report bool) ownState {
	evs := o.events[n]
	if len(evs) == 0 {
		return s
	}
	s = maps.Clone(s)
	for _, ev := range evs {
		switch ev.kind {
		case evAcquire:
			s[ev.obj] = bitOwned
		case evRebind:
			delete(s, ev.obj)
		case evEscape:
			s[ev.obj] |= bitEscaped
		case evRelease:
			s[ev.obj] &^= bitOwned
		case evDeferRelease:
			s[ev.obj] |= bitDeferRel
		case evUse:
			s[ev.obj] |= bitUsed
		case evReturn:
			if report {
				o.leakCheck(s, ev.pos)
			}
		}
	}
	return s
}

// leakCheck reports every variable still owned at a function exit,
// provided the function does release it on some other path — the
// early-return leak shape.
func (o *ownFunc) leakCheck(s ownState, pos token.Pos) {
	var objs []types.Object
	for obj, bits := range s {
		// An owned block that was never touched on this path is the
		// `b, err := Get(); if err != nil { return }` shape: b is nil
		// there, so demand use evidence before calling it a leak.
		if bits&bitOwned != 0 && bits&bitUsed != 0 && bits&(bitDeferRel|bitEscaped) == 0 {
			objs = append(objs, obj)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		rel, ok := o.relAt[obj]
		if !ok {
			continue // never released anywhere: a constructor or borrower
		}
		o.p.Reportf(pos, "%s may leak: still owned on this return path (released on another path at line %d)",
			obj.Name(), o.p.Fset.Position(rel).Line)
	}
}
