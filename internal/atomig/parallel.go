// Per-function work of the pipeline's fan-out phases. The pipeline runs
// each phase through fanout.Each: a worker handles one function at a
// time and writes only that function's result slot, and a sequential
// merge consumes the slots in function order — so the ported module and
// the report are byte-identical for every Options.Workers value
// (docs/PIPELINE.md).
package atomig

import (
	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// funcDetect is one function's detection-phase result slot.
type funcDetect struct {
	expl    transform.ExplicitStats
	spin    []*analysis.SpinloopInfo
	polling []*analysis.SpinloopInfo
	barrier []*ir.Instr
	atomics []*ir.Instr
}

// optLoopCtl pairs an optimistic loop with the canonical descriptors of
// its control locations.
type optLoopCtl struct {
	loop *analysis.Loop
	ctl  map[alias.Loc]bool
}

// fenceAnchors are one function's fence anchors: the accesses that
// need a seq_cst fence before them, then those that need one after.
type fenceAnchors struct {
	before, after []*ir.Instr
}

// optFenceAnchors finds where the optimistic-loop fence protocol puts
// fences in one function, without writing it: a read of a loop's
// control location inside that loop needs a seq_cst fence before it; a
// store to any optimistic-control location needs one after it. The
// function is walked in block order, so the anchors, and the fence IDs
// the merge gives them in this order, are deterministic. accs are the
// function's memory accesses in walk order, as detection prepared them
// for the alias map, so each access's descriptor is read from its entry
// rather than looked up in the map; they may belong to the instance
// detection saw, of which f may since be a copy.
//
// An anchor already adjacent to a seq_cst fence is skipped: the fence
// it needs is there. That makes the port idempotent — re-porting a
// ported module inserts nothing — and merges the redundant fences that
// back-to-back protocol anchors would otherwise stack up.
func optFenceAnchors(f *ir.Func, accs []alias.Access, loops []optLoopCtl, optLocs map[alias.Loc]bool, am *alias.Map) (a fenceAnchors) {
	if len(loops) == 0 && len(optLocs) == 0 {
		return a
	}
	isSCFence := func(in *ir.Instr) bool { return in.Op == ir.OpFence && in.Ord == ir.SeqCst }
	ai := 0
	for _, b := range f.Blocks {
		// Only a read inside one of f's optimistic loops can need a fence
		// before it, so only such a read's location is canonicalized.
		inLoop := false
		for _, ol := range loops {
			inLoop = inLoop || ol.loop.Blocks[b]
		}
		for i, in := range b.Instrs {
			if !in.IsMemAccess() {
				continue
			}
			loc := accs[ai].Primary
			ai++
			fenced := false
			if inLoop && in.Reads() {
				canon := am.Canon(loc)
				for _, ol := range loops {
					if !ol.loop.Blocks[b] || !ol.ctl[canon] {
						continue
					}
					fenced = true
					if i == 0 || !isSCFence(b.Instrs[i-1]) {
						a.before = append(a.before, in)
					}
					break
				}
			}
			if in.Writes() && !fenced && optLocs[am.Canon(loc)] {
				if i+1 >= len(b.Instrs) || !isSCFence(b.Instrs[i+1]) {
					a.after = append(a.after, in)
				}
			}
		}
	}
	return a
}
