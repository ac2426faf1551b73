// Package analysis implements the static analyses at the heart of the
// AtoMig pipeline (paper sections 3.3 and 3.5): dominator and natural
// loop computation, non-local access classification (a lightweight
// escape analysis), intra-procedural instruction-influence slicing,
// spinloop detection, optimistic-loop detection, and a pre-analysis
// function inliner for loops spanning multiple functions.
package analysis

import "repro/internal/ir"

// DomTree holds immediate dominators for a function's blocks.
type DomTree struct {
	fn   *ir.Func
	idom map[*ir.Block]*ir.Block
	// order is a reverse postorder numbering used by the iterative
	// dominator algorithm and reused by loop detection.
	order map[*ir.Block]int
	rpo   []*ir.Block
	// preds are the function's predecessor lists, which loop detection
	// reuses.
	preds map[*ir.Block][]*ir.Block
}

// Dominators computes the dominator tree of f using the classic
// iterative algorithm of Cooper, Harvey and Kennedy on a reverse
// postorder traversal.
func Dominators(f *ir.Func) *DomTree {
	entry := f.Entry()
	d := &DomTree{
		fn:    f,
		idom:  make(map[*ir.Block]*ir.Block, len(f.Blocks)),
		order: make(map[*ir.Block]int, len(f.Blocks)),
	}
	// Postorder DFS from entry.
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	// Reverse postorder.
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		d.order[b] = len(d.rpo)
		d.rpo = append(d.rpo, b)
	}
	d.preds = f.Preds()
	d.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range d.rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range d.preds[b] {
				if d.idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for d.order[a] > d.order[b] {
			a = d.idom[a]
		}
		for d.order[b] > d.order[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b. Every block dominates itself.
// Unreachable blocks are dominated by nothing and dominate nothing
// (other than themselves).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	if _, ok := d.idom[b]; !ok {
		return false // b unreachable
	}
	entry := d.fn.Entry()
	for b != entry {
		b = d.idom[b]
		if b == a {
			return true
		}
		if b == nil {
			return false
		}
	}
	return a == entry
}

// Reachable reports whether b is reachable from the entry block.
func (d *DomTree) Reachable(b *ir.Block) bool {
	_, ok := d.order[b]
	return ok
}
