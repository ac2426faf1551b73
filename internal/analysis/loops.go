package analysis

import "repro/internal/ir"

// Loop is a natural loop: a header with an incoming back edge, plus all
// blocks that can reach the back edge without passing through the header
// (paper section 3.3's loop definition).
type Loop struct {
	Header *ir.Block
	// Blocks is the loop body including the header.
	Blocks map[*ir.Block]bool
	// ExitBranches are the conditional branch instructions inside the
	// loop with at least one successor outside the loop. Their conditions
	// are the loop's exit conditions. (Because natural-loop membership
	// requires a path back to the header, every exit from the loop is
	// decided by such a conditional branch.)
	ExitBranches []*ir.Instr
}

// Contains reports whether the instruction lies inside the loop body.
func (l *Loop) Contains(in *ir.Instr) bool { return l.Blocks[in.Blk] }

// FindLoops returns the natural loops of f, one per loop header (back
// edges sharing a header are merged). dom must be f's dominator tree;
// its predecessor lists walk the loop bodies.
func FindLoops(f *ir.Func, dom *DomTree) []*Loop {
	byHeader := make(map[*ir.Block]*Loop)
	var headers []*ir.Block
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				headers = append(headers, s)
			}
			collectLoopBody(l, b, dom.preds)
		}
	}
	loops := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		l := byHeader[h]
		findExitBranches(l)
		loops = append(loops, l)
	}
	return loops
}

// collectLoopBody walks predecessors backwards from the back-edge tail,
// stopping at the header.
func collectLoopBody(l *Loop, tail *ir.Block, preds map[*ir.Block][]*ir.Block) {
	stack := []*ir.Block{tail}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.Blocks[b] {
			continue
		}
		l.Blocks[b] = true
		for _, p := range preds[b] {
			stack = append(stack, p)
		}
	}
}

func findExitBranches(l *Loop) {
	// Walk the function's block list rather than the membership set so the
	// branch order (and everything downstream: control order, seed order,
	// ported output) is deterministic.
	for _, b := range l.Header.Fn.Blocks {
		if !l.Blocks[b] {
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr || t.Else == nil {
			continue
		}
		if !l.Blocks[t.Then] || !l.Blocks[t.Else] {
			l.ExitBranches = append(l.ExitBranches, t)
		}
	}
}
