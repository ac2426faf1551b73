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
// store to any optimistic-control location needs one after it. Control
// locations are shared descriptors, so only the function's shared
// accesses can be anchors: accs, in walk order, as detection prepared
// them for the alias map. The anchors, and the fence IDs the merge
// gives them in this order, are therefore deterministic. Each access's
// descriptor is read from its entry rather than looked up in the map.
// The entries belong to the instance detection saw; a sticky buddy may
// since have copied the function, so the anchors are taken, and the
// adjacent-fence check read, on the copy (o.current).
//
// An anchor already adjacent to a seq_cst fence is skipped: the fence
// it needs is there. That makes the port idempotent — re-porting a
// ported module inserts nothing — and merges the redundant fences that
// back-to-back protocol anchors would otherwise stack up.
func optFenceAnchors(accs []alias.Access, loops []optLoopCtl, optLocs map[alias.Loc]bool, am *alias.Map, o *owner) (a fenceAnchors) {
	if len(loops) == 0 && len(optLocs) == 0 {
		return a
	}
	for _, acc := range accs {
		in, canon := acc.In, am.Canon(acc.Primary)
		// Only a read of a loop's control location inside that loop needs
		// a fence before it. Most accesses are not anchors, so the loop and
		// descriptor tests come before the instruction is read.
		fenced := false
		if len(loops) > 0 && in.Reads() {
			for _, ol := range loops {
				if ol.loop.Blocks[in.Blk] && ol.ctl[canon] {
					fenced = true
					break
				}
			}
		}
		switch {
		case fenced:
			cur := o.current(in)
			if i := blockIndex(cur); i == 0 || !isSCFence(cur.Blk.Instrs[i-1]) {
				a.before = append(a.before, cur)
			}
		case optLocs[canon] && in.Writes():
			cur := o.current(in)
			if i := blockIndex(cur); i+1 >= len(cur.Blk.Instrs) || !isSCFence(cur.Blk.Instrs[i+1]) {
				a.after = append(a.after, cur)
			}
		}
	}
	return a
}

// blockIndex returns in's index in its block.
func blockIndex(in *ir.Instr) int {
	for i, x := range in.Blk.Instrs {
		if x == in {
			return i
		}
	}
	panic("atomig: instruction outside its block")
}

func isSCFence(in *ir.Instr) bool { return in.Op == ir.OpFence && in.Ord == ir.SeqCst }
