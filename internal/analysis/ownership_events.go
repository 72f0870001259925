package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Event extraction for the block-ownership check: each CFG node is
// lowered to an ordered list of ownership events (acquire, release,
// escape, use, ...) over the function's candidate variables. The
// structured walk claims the identifiers it consumes; a final generic
// pass turns every unclaimed mention of a candidate into a use.

// collectCandidates finds the variables worth tracking: locals and
// parameters of an ownable pointer type (carrying Free) and raw []byte
// buffers that come from GetBytes or go to PutBytes. It also resolves
// the function's own //netvet:owns entry state.
func (o *ownFunc) collectCandidates(body *ast.BlockStmt, fn *types.Func) {
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := o.objOf(n)
			if v, ok := obj.(*types.Var); ok && !v.IsField() && ownable(v.Type()) {
				o.cands[obj] = true
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := o.objOf(id)
				if obj == nil {
					continue
				}
				if call, ok := rhs.(*ast.CallExpr); ok && calleeName(call) == "GetBytes" && isByteSlice(obj.Type()) {
					o.cands[obj] = true
				}
			}
		case *ast.CallExpr:
			if calleeName(n) == "PutBytes" {
				for _, a := range n.Args {
					if id, ok := a.(*ast.Ident); ok {
						if obj := o.objOf(id); obj != nil && isByteSlice(obj.Type()) {
							if v, ok := obj.(*types.Var); ok && !v.IsField() {
								o.cands[obj] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	if fn != nil {
		if fact, ok := o.p.Owns(fn); ok {
			sig := fn.Type().(*types.Signature)
			if fact.Recv && sig.Recv() != nil && o.cands[sig.Recv()] {
				o.entryOwned = append(o.entryOwned, sig.Recv())
			}
			for _, i := range fact.Params {
				if prm := sig.Params().At(i); o.cands[prm] || isByteSlice(prm.Type()) {
					o.cands[prm] = true
					o.entryOwned = append(o.entryOwned, prm)
				}
			}
		}
	}
}

// extract lowers one CFG node into its ownership events.
func (o *ownFunc) extract(n ast.Node) []ownEvent {
	var evs []ownEvent
	add := func(e ownEvent) { evs = append(evs, e) }

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// The body runs later (or elsewhere): captured candidates
			// escape our bookkeeping.
			for _, obj := range o.mentioned(n.Body) {
				add(ownEvent{kind: evEscape, obj: obj, pos: n.Pos()})
			}
			return
		case *RangeHeader:
			walk(n.Range.X)
			for _, kv := range []ast.Expr{n.Range.Key, n.Range.Value} {
				if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
					if obj := o.objOf(id); obj != nil && o.cands[obj] {
						add(ownEvent{kind: evRebind, obj: obj, pos: id.Pos()})
						o.claimed[id] = true
					}
				}
			}
			return
		case *SelectHeader:
			return
		case *ast.DeferStmt:
			o.extractDeferred(n.Call, n.Pos(), add)
			return
		case *ast.GoStmt:
			for _, obj := range o.mentioned(n.Call) {
				add(ownEvent{kind: evEscape, obj: obj, pos: n.Pos()})
			}
			o.claimAll(n.Call)
			return
		case *ast.ReturnStmt:
			for _, obj := range o.mentioned(n) {
				add(ownEvent{kind: evEscape, obj: obj, pos: n.Pos()})
			}
			o.claimAll(n)
			add(ownEvent{kind: evReturn, pos: n.End()})
			return
		case *ast.SendStmt:
			walk(n.Chan)
			if id, ok := n.Value.(*ast.Ident); ok {
				if obj := o.objOf(id); obj != nil && o.cands[obj] {
					add(ownEvent{kind: evEscape, obj: obj, pos: id.Pos()})
					o.claimed[id] = true
					return
				}
			}
			walk(n.Value)
			return
		case *ast.AssignStmt:
			o.extractAssign(n, add, walk)
			return
		case *ast.CallExpr:
			if o.extractCall(n, add, walk) {
				return
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := e.(*ast.Ident); ok {
					if obj := o.objOf(id); obj != nil && o.cands[obj] {
						add(ownEvent{kind: evEscape, obj: obj, pos: id.Pos()})
						o.claimed[id] = true
						continue
					}
				}
				walk(e)
			}
			return
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok {
					if obj := o.objOf(id); obj != nil && o.cands[obj] {
						add(ownEvent{kind: evEscape, obj: obj, pos: id.Pos()})
						o.claimed[id] = true
						return
					}
				}
			}
		case *ast.BinaryExpr:
			// Comparisons against nil are neutral: checking a pointer
			// is not touching the buffer.
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isNilIdent(n.X) || isNilIdent(n.Y)) {
				if id, ok := n.X.(*ast.Ident); ok {
					o.claimed[id] = true
				}
				if id, ok := n.Y.(*ast.Ident); ok {
					o.claimed[id] = true
				}
			}
		}
		for _, c := range childNodes(n) {
			walk(c)
		}
	}
	walk(n)

	// Generic use pass: every unclaimed mention of a candidate.
	inspectSkippingFuncLits(n, func(m ast.Node) bool {
		if _, skip := m.(*ast.DeferStmt); skip {
			return false
		}
		if _, skip := m.(*ast.GoStmt); skip {
			return false
		}
		if h, isRange := m.(*RangeHeader); isRange {
			inspectSkippingFuncLits(h.Range.X, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && !o.claimed[id] {
					if obj := o.objOf(id); obj != nil && o.cands[obj] {
						add(ownEvent{kind: evUse, obj: obj, pos: id.Pos()})
					}
				}
				return true
			})
			return false
		}
		if _, isSel := m.(*SelectHeader); isSel {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && !o.claimed[id] {
			if obj := o.objOf(id); obj != nil && o.cands[obj] {
				add(ownEvent{kind: evUse, obj: obj, pos: id.Pos()})
			}
		}
		return true
	})

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// extractAssign lowers an assignment: acquisitions, self-slices,
// rebinds, and var-to-var escapes.
func (o *ownFunc) extractAssign(as *ast.AssignStmt, add func(ownEvent), walk func(ast.Node)) {
	multi := len(as.Rhs) == 1 && len(as.Lhs) > 1
	for i, lhs := range as.Lhs {
		id, isIdent := lhs.(*ast.Ident)
		var rhs ast.Expr
		if multi {
			rhs = as.Rhs[0]
		} else if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		if !isIdent || id.Name == "_" {
			// Storing a candidate into a field, slot or map escapes it.
			if rid, ok := rhs.(*ast.Ident); ok && !multi {
				if obj := o.objOf(rid); obj != nil && o.cands[obj] {
					add(ownEvent{kind: evEscape, obj: obj, pos: rid.Pos()})
					o.claimed[rid] = true
				}
			}
			continue
		}
		obj := o.objOf(id)
		if obj == nil || !o.cands[obj] {
			continue
		}
		o.claimed[id] = true
		switch {
		case !multi && o.isAcquireCall(rhs):
			add(ownEvent{kind: evAcquire, obj: obj, pos: rhs.End()})
		case multi && o.isAcquireCall(as.Rhs[0]):
			// b, err := f(): the ownable result is acquired.
			if ownable(obj.Type()) || isByteSlice(obj.Type()) {
				add(ownEvent{kind: evAcquire, obj: obj, pos: as.Rhs[0].End()})
			}
		case !multi && isSelfSlice(rhs, obj, o.objOf):
			// data = data[:n]: same buffer, same ownership.
		case !multi && func() bool { rid, ok := rhs.(*ast.Ident); return ok && o.objOf(rid) != nil && o.cands[o.objOf(rid)] }():
			// c := b aliases the whole block into another name; both
			// are now suspect, so b escapes and c starts untracked.
			rid := rhs.(*ast.Ident)
			add(ownEvent{kind: evEscape, obj: o.objOf(rid), pos: rid.Pos()})
			o.claimed[rid] = true
			add(ownEvent{kind: evRebind, obj: obj, pos: rhs.End()})
		default:
			add(ownEvent{kind: evRebind, obj: obj, pos: as.End()})
		}
	}
	for _, rhs := range as.Rhs {
		walk(rhs)
	}
	for _, lhs := range as.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			walk(lhs)
		}
	}
}

// extractCall lowers a call when it is ownership-relevant (a release,
// a Ref, an append); returns false to let the generic walk handle it.
func (o *ownFunc) extractCall(call *ast.CallExpr, add func(ownEvent), walk func(ast.Node)) bool {
	if released := o.releaseSubjects(call); len(released) > 0 {
		for _, id := range released {
			add(ownEvent{kind: evRelease, obj: o.objOf(id), pos: call.Rparen})
			o.claimed[id] = true
		}
		for _, a := range call.Args {
			walk(a)
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			walk(sel.X)
		}
		return true
	}
	switch name := calleeName(call); {
	case name == "Ref" && len(call.Args) == 0:
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := o.objOf(id); obj != nil && o.cands[obj] && ownable(obj.Type()) {
					// Ref is a use of the block, and after it the
					// block is refcount-shared: linear ownership
					// reasoning no longer applies, so stop judging.
					add(ownEvent{kind: evUse, obj: obj, pos: call.Pos()})
					add(ownEvent{kind: evEscape, obj: obj, pos: call.Pos()})
					o.claimed[id] = true
					return true
				}
			}
		}
	case name == "append":
		if id, ok := call.Fun.(*ast.Ident); ok && o.p.Pkg.Info.Uses[id] == types.Universe.Lookup("append") {
			for _, a := range call.Args[1:] {
				if aid, ok := a.(*ast.Ident); ok {
					if obj := o.objOf(aid); obj != nil && o.cands[obj] {
						add(ownEvent{kind: evEscape, obj: obj, pos: aid.Pos()})
						o.claimed[aid] = true
					}
				}
			}
		}
	}
	return false
}

// extractDeferred lowers `defer call`: a deferred release marks its
// subjects; anything else that mentions a candidate escapes it.
func (o *ownFunc) extractDeferred(call *ast.CallExpr, pos token.Pos, add func(ownEvent)) {
	if released := o.releaseSubjects(call); len(released) > 0 {
		for _, id := range released {
			add(ownEvent{kind: evDeferRelease, obj: o.objOf(id), pos: pos})
		}
		o.claimAll(call)
		return
	}
	for _, obj := range o.mentioned(call) {
		add(ownEvent{kind: evEscape, obj: obj, pos: pos})
	}
	o.claimAll(call)
}

// releaseSubjects resolves the candidates a call releases, by
// annotation or by the Free/Put naming contract: declared transfers win
// over name heuristics.
func (o *ownFunc) releaseSubjects(call *ast.CallExpr) []*ast.Ident {
	var out []*ast.Ident
	cand := func(e ast.Expr, ok func(types.Type) bool) {
		if id, isID := e.(*ast.Ident); isID {
			if obj := o.objOf(id); obj != nil && o.cands[obj] && ok(obj.Type()) {
				out = append(out, id)
			}
		}
	}
	always := func(types.Type) bool { return true }
	if fn := o.calleeFunc(call); fn != nil {
		if fact, ok := o.p.Owns(fn); ok {
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && fact.Recv {
				cand(sel.X, always)
			}
			sig := fn.Type().(*types.Signature)
			for _, pi := range fact.Params {
				for _, ai := range argIndices(sig, pi, len(call.Args)) {
					cand(call.Args[ai], always)
				}
			}
			return out
		}
	}
	name := calleeName(call)
	switch {
	case name == "Free" && len(call.Args) == 0:
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			cand(sel.X, ownable)
		}
	case releaseNames[name]:
		for _, a := range call.Args {
			cand(a, func(t types.Type) bool { return ownable(t) || (name == "PutBytes" && isByteSlice(t)) })
		}
	}
	return out
}

// Helpers.

func (o *ownFunc) objOf(id *ast.Ident) types.Object {
	if obj := o.p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return o.p.Pkg.Info.Defs[id]
}

// mentioned lists the distinct candidates referenced anywhere under n,
// in first-mention order.
func (o *ownFunc) mentioned(n ast.Node) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := o.objOf(id); obj != nil && o.cands[obj] && !seen[obj] {
				seen[obj] = true
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// claimAll marks every candidate mention under n as consumed, so the
// generic use pass stays quiet about it.
func (o *ownFunc) claimAll(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := o.objOf(id); obj != nil && o.cands[obj] {
				o.claimed[id] = true
			}
		}
		return true
	})
}

// isAcquireCall reports whether e is a call that hands the caller a
// fresh owned value: any call whose (sole or first) result is an
// ownable pointer, or a GetBytes raw buffer.
func (o *ownFunc) isAcquireCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if calleeName(call) == "GetBytes" {
		if t, ok := o.p.Pkg.Info.Types[call]; ok && isByteSlice(t.Type) {
			return true
		}
	}
	t, ok := o.p.Pkg.Info.Types[call]
	if !ok || t.Type == nil {
		return false
	}
	typ := t.Type
	if tup, isTuple := typ.(*types.Tuple); isTuple {
		if tup.Len() == 0 {
			return false
		}
		typ = tup.At(0).Type()
	}
	if _, isConv := call.Fun.(*ast.Ident); isConv && len(call.Args) == 1 {
		// A conversion T(x) is not an acquisition.
		if _, isType := o.p.Pkg.Info.Types[call.Fun]; isType {
			if _, isFn := o.p.Pkg.Info.Uses[call.Fun.(*ast.Ident)].(*types.Func); !isFn {
				return false
			}
		}
	}
	return ownable(typ)
}

func (o *ownFunc) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := o.p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := o.p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// argIndices maps a parameter index to the call's argument indices,
// fanning a variadic final parameter across the trailing arguments.
func argIndices(sig *types.Signature, param, nargs int) []int {
	if sig.Variadic() && param == sig.Params().Len()-1 {
		var out []int
		for i := param; i < nargs; i++ {
			out = append(out, i)
		}
		return out
	}
	if param < nargs {
		return []int{param}
	}
	return nil
}

// ownable reports whether t is a pointer (or named) non-interface type
// whose method set carries Free — the pooled-block shape.
func ownable(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if _, isIface := ptr.Elem().Underlying().(*types.Interface); isIface {
			return false
		}
	}
	return hasMethod(t, "Free")
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isSelfSlice reports whether rhs is a slice/index re-derivation of
// the same variable (data = data[:n]).
func isSelfSlice(rhs ast.Expr, obj types.Object, objOf func(*ast.Ident) types.Object) bool {
	for {
		switch e := rhs.(type) {
		case *ast.SliceExpr:
			rhs = e.X
		case *ast.Ident:
			return objOf(e) == obj
		default:
			return false
		}
	}
}
