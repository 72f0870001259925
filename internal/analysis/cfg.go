package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// This file is the intra-procedural control-flow graph the dataflow
// checks run over. One function body becomes a graph of basic blocks:
// straight-line statement runs linked by every control transfer Go can
// express — if/else, the three for forms, range, switch and type
// switch (with fallthrough), select, labeled break/continue, goto,
// return, and panic. Deferred calls are collected during the walk and
// replayed, in reverse registration order, inside the single Exit
// block, mirroring the runtime's unwinding; a return edge therefore
// passes through the deferred work before leaving the function, which
// is exactly what the leak analysis and the lock solve need to see.
//
// The builder is syntactic and conservative: both arms of every branch
// are possible, loops may run zero times, and a select with no cases
// (which blocks forever) simply has no successors. Function literals
// are opaque expressions here — their bodies get their own CFGs.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *BBlock
	Exit   *BBlock // the one way out: returns, panics, fall-off-end
	Blocks []*BBlock
}

// BBlock is one basic block: statements (and the conditions of the
// branches that end the block) executed in order, then a transfer to
// one of Succs. The Exit block's Nodes are the *ast.CallExpr of each
// deferred call, last-registered first.
type BBlock struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.body", ... for rendering
	Nodes []ast.Node
	Succs []*BBlock
}

// RangeHeader is the CFG node standing for a range statement's header
// — the ranged expression and the key/value bindings — without the
// body (which lives in its own blocks). Checks treat X as a use and
// Key/Value as definitions, evaluated once per iteration.
type RangeHeader struct{ Range *ast.RangeStmt }

func (h *RangeHeader) Pos() token.Pos { return h.Range.Pos() }
func (h *RangeHeader) End() token.Pos { return h.Range.X.End() }

// SelectHeader is the CFG node standing for the blocking point of a
// select statement; the comm clauses live in the case blocks.
type SelectHeader struct{ Select *ast.SelectStmt }

func (h *SelectHeader) Pos() token.Pos { return h.Select.Pos() }
func (h *SelectHeader) End() token.Pos { return h.Select.Pos() + token.Pos(len("select")) }

// cfgBuilder carries the walk state.
type cfgBuilder struct {
	cfg    *CFG
	cur    *BBlock   // block under construction; nil after a terminator
	toExit []*BBlock // blocks ending in return or panic
	frames []*frame  // enclosing breakable/continuable constructs
	labels map[string]*BBlock
	defers []*ast.CallExpr // registration order
}

// frame is one enclosing construct break (and for loops, continue)
// can target.
type frame struct {
	label    string
	loop     bool
	cont     *BBlock   // continue target (loop head or post), set up front
	breaks   []*BBlock // blocks that break out; linked when the after-block exists
	nextCase *BBlock   // fallthrough target while building a switch
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*BBlock{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil { // fall off the end
		b.toExit = append(b.toExit, b.cur)
	}
	exit := b.newBlock("exit")
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	for _, blk := range b.toExit {
		link(blk, exit)
	}
	b.cfg.Exit = exit
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *BBlock {
	blk := &BBlock{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func link(from, to *BBlock) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// block returns the block to append to, reviving an unreachable region
// (statements after return/break) as a predecessor-less block so their
// nodes still exist in the graph.
func (b *cfgBuilder) block() *BBlock {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) { b.block().Nodes = append(b.block().Nodes, n) }

// terminate ends the current block toward the exit.
func (b *cfgBuilder) terminate() {
	if b.cur != nil {
		b.toExit = append(b.toExit, b.cur)
		b.cur = nil
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the label attached to it, if
// it is the direct child of a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			link(b.cur, lb)
		}
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate()

	case *ast.DeferStmt:
		b.add(s) // the registration point: arguments are evaluated here
		b.defers = append(b.defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.terminate()
		}

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, "typeswitch")

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.GoStmt:
		b.add(s) // call arguments are evaluated here; the body runs elsewhere

	default:
		// Assignments, declarations, sends, inc/dec, empty statements:
		// straight-line.
		b.add(s)
	}
}

// labelBlock returns (creating on first mention — a forward goto may
// arrive before the label) the block a label starts.
func (b *cfgBuilder) labelBlock(name string) *BBlock {
	lb := b.labels[name]
	if lb == nil {
		lb = b.newBlock("label." + name)
		b.labels[name] = lb
	}
	return lb
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.GOTO:
		if b.cur != nil {
			link(b.cur, b.labelBlock(label))
			b.cur = nil
		}
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				if b.cur != nil {
					f.breaks = append(f.breaks, b.cur)
					b.cur = nil
				}
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.loop && (label == "" || f.label == label) {
				if b.cur != nil {
					link(b.cur, f.cont)
					b.cur = nil
				}
				return
			}
		}
	case token.FALLTHROUGH:
		if f := b.topFrame(); f != nil && f.nextCase != nil && b.cur != nil {
			link(b.cur, f.nextCase)
			b.cur = nil
		}
	}
}

func (b *cfgBuilder) topFrame() *frame {
	if len(b.frames) == 0 {
		return nil
	}
	return b.frames[len(b.frames)-1]
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	b.add(s.Cond)
	cond := b.block()
	b.cur = nil

	then := b.newBlock("if.then")
	link(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	// The else arm is always materialized, even when empty, so every
	// if has the same two-armed shape.
	els := b.newBlock("if.else")
	link(cond, els)
	b.cur = els
	if s.Else != nil {
		b.stmt(s.Else, "")
	}
	elseEnd := b.cur

	if thenEnd == nil && elseEnd == nil {
		b.cur = nil // both arms terminated
		return
	}
	join := b.newBlock("if.join")
	if thenEnd != nil {
		link(thenEnd, join)
	}
	if elseEnd != nil {
		link(elseEnd, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init, "")
	}
	head := b.newBlock("for.head")
	if b.cur != nil {
		link(b.cur, head)
	}
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}

	var post *BBlock
	cont := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		link(post, head)
		cont = post
	}

	f := &frame{label: label, loop: true, cont: cont}
	b.frames = append(b.frames, f)
	body := b.newBlock("for.body")
	link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		link(b.cur, cont)
	}
	b.frames = b.frames[:len(b.frames)-1]

	if s.Cond == nil && len(f.breaks) == 0 {
		b.cur = nil // for {} with no break never falls through
		return
	}
	after := b.newBlock("for.after")
	if s.Cond != nil {
		link(head, after)
	}
	for _, blk := range f.breaks {
		link(blk, after)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	if b.cur != nil {
		link(b.cur, head)
	}
	head.Nodes = append(head.Nodes, &RangeHeader{Range: s})

	f := &frame{label: label, loop: true, cont: head}
	b.frames = append(b.frames, f)
	body := b.newBlock("range.body")
	link(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		link(b.cur, head)
	}
	b.frames = b.frames[:len(b.frames)-1]

	after := b.newBlock("range.after")
	link(head, after)
	for _, blk := range f.breaks {
		link(blk, after)
	}
	b.cur = after
}

// switchBody builds the clauses of a switch or type switch. The head
// (tag already appended to cur) branches to every case; a case without
// fallthrough ends at the join; no default means the head can skip to
// the join directly.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label, kind string) {
	head := b.block()
	b.cur = nil
	f := &frame{label: label}
	b.frames = append(b.frames, f)

	// Case bodies are created first so fallthrough has a target.
	var caseBlocks []*BBlock
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		cb := b.newBlock(kind + ".case")
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseBlocks = append(caseBlocks, cb)
		link(head, cb)
	}
	var ends []*BBlock
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		f.nextCase = nil
		if i+1 < len(caseBlocks) {
			f.nextCase = caseBlocks[i+1]
		}
		b.cur = caseBlocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			ends = append(ends, b.cur)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]

	join := b.newBlock(kind + ".join")
	if !hasDefault {
		link(head, join)
	}
	for _, e := range ends {
		link(e, join)
	}
	for _, blk := range f.breaks {
		link(blk, join)
	}
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.block()
	head.Nodes = append(head.Nodes, &SelectHeader{Select: s}) // the blocking point itself
	b.cur = nil
	if len(s.Body.List) == 0 {
		return // select {} blocks forever: no successors
	}
	f := &frame{label: label}
	b.frames = append(b.frames, f)

	var ends []*BBlock
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		cb := b.newBlock("select.case")
		link(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.stmt(cc.Comm, "")
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			ends = append(ends, b.cur)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]

	if len(ends) == 0 && len(f.breaks) == 0 {
		b.cur = nil
		return
	}
	join := b.newBlock("select.join")
	for _, e := range ends {
		link(e, join)
	}
	for _, blk := range f.breaks {
		link(blk, join)
	}
	b.cur = join
}

// isPanicCall recognizes a direct call of the panic builtin.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Render prints the CFG canonically, one block per line:
//
//	b0 entry: {x := f(); x > 0} -> b1 b2
//
// Deterministic, whitespace-collapsed — the shape the builder tests
// pin.
func (g *CFG) Render(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			var parts []string
			for _, n := range blk.Nodes {
				parts = append(parts, nodeText(fset, n))
			}
			fmt.Fprintf(&sb, " {%s}", strings.Join(parts, "; "))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeText renders one node as a single collapsed line of source.
func nodeText(fset *token.FileSet, n ast.Node) string {
	switch n := n.(type) {
	case *RangeHeader:
		head := "range " + nodeText(fset, n.Range.X)
		if n.Range.Key != nil {
			kv := nodeText(fset, n.Range.Key)
			if n.Range.Value != nil {
				kv += ", " + nodeText(fset, n.Range.Value)
			}
			head = kv + " " + n.Range.Tok.String() + " " + head
		}
		return head
	case *SelectHeader:
		return "select"
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}
