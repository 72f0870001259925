package analysis

import "go/ast"

// A lattice-based forward worklist solver over the CFG. A check
// describes its analysis as a Problem — an abstract state, a transfer
// function over CFG nodes, and a join — and Solve iterates to a fixed
// point. States must be treated as immutable by Transfer (return a
// fresh value when anything changes): the solver caches and compares
// them across iterations.

// State is a check's abstract value at a program point.
type State any

// Problem is one forward dataflow analysis.
type Problem interface {
	// Entry is the state on function entry.
	Entry() State
	// Transfer produces the state after executing node n in block b
	// with state s. It must not mutate s.
	Transfer(b *BBlock, n ast.Node, s State) State
	// Join merges the states of two incoming edges.
	Join(a, b State) State
	// Equal reports whether two states carry the same information;
	// the solver stops when all block states stabilize.
	Equal(a, b State) bool
}

// Solve runs p forward over g to a fixed point and returns the state
// at entry to each block. Blocks never reached from Entry keep a nil
// in-state; Transfer is not run over them on the final pass either, so
// checks see only feasible paths. The iteration bound (blocks ×
// nodes, generously padded) guards against a non-converging lattice.
func Solve(g *CFG, p Problem) map[*BBlock]State {
	in := make(map[*BBlock]State, len(g.Blocks))
	in[g.Entry] = p.Entry()

	// Reverse-postorder worklist seeded from entry.
	order := postorder(g)
	pos := make(map[*BBlock]int, len(order))
	for i, b := range order {
		pos[b] = len(order) - i // higher = earlier in RPO
	}
	work := []*BBlock{g.Entry}
	queued := map[*BBlock]bool{g.Entry: true}
	steps, maxSteps := 0, (len(g.Blocks)+2)*(len(g.Blocks)+2)*4

	for len(work) > 0 {
		// Pop the block earliest in reverse postorder.
		best := 0
		for i := 1; i < len(work); i++ {
			if pos[work[i]] > pos[work[best]] {
				best = i
			}
		}
		b := work[best]
		work = append(work[:best], work[best+1:]...)
		queued[b] = false
		if steps++; steps > maxSteps {
			break
		}

		s := in[b]
		if s == nil {
			continue
		}
		for _, n := range b.Nodes {
			s = p.Transfer(b, n, s)
		}
		for _, succ := range b.Succs {
			next := s
			if prev := in[succ]; prev != nil {
				next = p.Join(prev, next)
				if p.Equal(prev, next) {
					continue
				}
			}
			in[succ] = next
			if !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// postorder returns the blocks reachable from Entry in DFS postorder.
func postorder(g *CFG) []*BBlock {
	var order []*BBlock
	seen := make(map[*BBlock]bool, len(g.Blocks))
	var visit func(b *BBlock)
	visit = func(b *BBlock) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(g.Entry)
	return order
}
