package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockAcrossSendCheck flags sync.Mutex/RWMutex regions that reach a
// channel operation or a known-blocking call while the lock is held.
// In the stream put chains and the mount driver mux this is the
// classic deadlock shape: the send blocks for flow control, the peer
// needs the lock to drain, and the machine wedges. Known-blocking
// calls are select (without default), sync.WaitGroup.Wait, time.Sleep,
// the virtual clock's direct parks (Clock.Sleep and SleepUntil,
// Mailbox.Send and Recv, vclock.WaitGroup.Wait: a sync lock held across
// one stops the token scheduler as soon as a second goroutine wants it),
// and acquiring another mutex (lock-order inversions start here).
//
// A vclock.Mutex is the lock that may be held across a park, so the
// blocking rules do not apply to it; it is tracked all the same, so
// taking it under a sync lock, or a second lock under it, is reported.
var lockAcrossSendCheck = &Check{
	Name: "lock-across-send",
	Doc:  "mutex held across a channel operation or blocking call",
	Run:  runLockAcrossSend,
}

func runLockAcrossSend(p *Pass) {
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			s := &lockScan{p: p, held: map[string]heldLock{}}
			s.stmts(body.List)
		})
	}
}

// lockScan walks a statement list tracking which mutexes are held.
// Nested blocks are scanned with a copy of the held set, so branch-
// local lock/unlock pairs stay local; a defer'd unlock keeps the
// region open to the end of the function, as at runtime.
type lockScan struct {
	p    *Pass
	held map[string]heldLock // receiver expr -> the Lock call
}

type heldLock struct {
	pos   token.Pos
	parks bool // a vclock.Mutex
}

func (s *lockScan) fork() *lockScan {
	held := make(map[string]heldLock, len(s.held))
	for k, v := range s.held {
		held[k] = v
	}
	return &lockScan{p: s.p, held: held}
}

func (s *lockScan) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *lockScan) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if sel, parks, ok := s.p.mutexMethod(call); ok {
				recv := types.ExprString(sel.X)
				switch sel.Sel.Name {
				case "Lock", "RLock":
					s.lockWhileHeld(call, recv)
					s.held[recv] = heldLock{call.Pos(), parks}
					return
				case "Unlock", "RUnlock":
					delete(s.held, recv)
					return
				}
			}
		}
		s.scan(st)
	case *ast.DeferStmt:
		if sel, _, ok := s.p.mutexMethod(st.Call); ok && (sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") {
			return // releases only at return; the held region continues
		}
		// The deferred call itself runs later; its arguments are
		// evaluated now.
		for _, a := range st.Call.Args {
			s.scan(a)
		}
	case *ast.SendStmt:
		s.report(st.Pos(), "channel send")
		s.scan(st.Chan)
		s.scan(st.Value)
	case *ast.SelectStmt:
		if blockingSelect(st) {
			s.report(st.Pos(), "select")
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			sub := s.fork()
			sub.stmts(cc.Body)
		}
	case *ast.RangeStmt:
		if t, ok := s.p.Pkg.Info.Types[st.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				s.report(st.Pos(), "range over channel")
			}
		}
		s.scan(st.X)
		sub := s.fork()
		sub.stmts(st.Body.List)
	case *ast.ForStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.scan(st.Cond)
		}
		sub := s.fork()
		sub.stmts(st.Body.List)
		if st.Post != nil {
			sub.stmt(st.Post)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		s.scan(st.Cond)
		sub := s.fork()
		sub.stmts(st.Body.List)
		if st.Else != nil {
			sub2 := s.fork()
			sub2.stmt(st.Else)
		}
	case *ast.BlockStmt:
		sub := s.fork()
		sub.stmts(st.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Tag != nil {
			s.scan(st.Tag)
		}
		for _, c := range st.Body.List {
			sub := s.fork()
			sub.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init)
		}
		for _, c := range st.Body.List {
			sub := s.fork()
			sub.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.GoStmt:
		// Starting a goroutine never blocks; only the argument
		// expressions are evaluated here.
		for _, a := range st.Call.Args {
			s.scan(a)
		}
	default:
		s.scan(st)
	}
}

// scan inspects a statement or expression subtree for blocking
// operations while any lock is held, without descending into function
// literals.
func (s *lockScan) scan(n ast.Node) {
	if n == nil || len(s.held) == 0 {
		return
	}
	inspectSkippingFuncLits(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.report(n.Pos(), "channel receive")
			}
		case *ast.SendStmt:
			s.report(n.Pos(), "channel send")
		case *ast.CallExpr:
			if sel, _, ok := s.p.mutexMethod(n); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
				s.lockWhileHeld(n, types.ExprString(sel.X))
				return false
			}
			if what, ok := s.p.blockingCall(n); ok {
				s.report(n.Pos(), what)
			}
		}
		return true
	})
}

// lockWhileHeld reports acquiring recv while a different mutex is
// already held — the opening move of a lock-order inversion.
func (s *lockScan) lockWhileHeld(call *ast.CallExpr, recv string) {
	for other, h := range s.held {
		if other != recv {
			s.p.Reportf(call.Pos(), "acquiring %s while holding %s (locked at line %d)",
				recv, other, s.p.Fset.Position(h.pos).Line)
			return
		}
	}
}

// report flags a blocking operation at pos against a held sync lock.
func (s *lockScan) report(pos token.Pos, what string) {
	for recv, h := range s.held {
		if h.parks {
			continue
		}
		s.p.Reportf(pos, "%s while holding %s (locked at line %d)",
			what, recv, s.p.Fset.Position(h.pos).Line)
		return // one finding per site is enough
	}
}

// blockingSelect reports whether a select can block (no default case).
func blockingSelect(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return false
		}
	}
	return true
}

// mutexMethod resolves call to a method of a sync.Mutex, sync.RWMutex
// or vclock.Mutex; sel.X is the lock's identity and parks reports the
// vclock.Mutex. Promoted methods of embedded mutexes resolve too.
func (p *Pass) mutexMethod(call *ast.CallExpr) (sel *ast.SelectorExpr, parks, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return nil, false, false
	}
	fn, okFn := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return nil, false, false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return nil, false, false
	}
	parks, ok = mutexType(r.Type())
	return sel, parks, ok
}

// mutexType reports whether t (or what it points to) is one of the
// mutual-exclusion types the lock checks track, and whether it is the
// vclock.Mutex, whose waiters park through the clock.
func mutexType(t types.Type) (parks, ok bool) {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
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

// blockingCall classifies calls known to block: sync.WaitGroup.Wait,
// time.Sleep, and the vclock primitives that park the caller directly.
// Cond.Wait, sync's and vclock's, is deliberately excluded — it
// releases its locker while waiting.
func (p *Pass) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	recv := ""
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		recv = typeName(r.Type())
	}
	pkg, name := fn.Pkg(), fn.Name()
	switch {
	case pkg.Path() == "sync" && recv == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	case pkg.Path() == "time" && name == "Sleep":
		return "time.Sleep", true
	case pkg.Name() == "vclock" && (name == "Sleep" || name == "SleepUntil" ||
		recv == "Mailbox" && (name == "Send" || name == "Recv") ||
		recv == "WaitGroup" && name == "Wait"):
		return "vclock." + recv + "." + name, true
	}
	return "", false
}

// typeName returns the bare name of a (possibly pointer) named type.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
