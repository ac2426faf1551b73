// Per-function work of the pipeline's fan-out phases. Port runs each
// phase through fanout.Each: a worker handles one function at a time
// and writes only that function's result slot, and a sequential merge
// consumes the slots in function order — so the ported module and the
// report are byte-identical for every Options.Workers value
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

// insertOptFences applies the optimistic-loop fence protocol to one
// function: a read of a loop's control location inside that loop gets a
// seq_cst fence before it; a store to any optimistic-control location
// gets one after it. The function is walked in block order, anchors are
// collected first (insertion mutates the instruction lists being
// scanned), then spliced — a fully deterministic sequence per function.
//
// An anchor already adjacent to a seq_cst fence is skipped: the fence
// it needs is there. That makes the port idempotent — re-porting a
// ported module inserts nothing — and merges the redundant fences that
// back-to-back protocol anchors would otherwise stack up.
func insertOptFences(f *ir.Func, loops []optLoopCtl, optLocs map[alias.Loc]bool, am *alias.Map) int {
	if len(loops) == 0 && len(optLocs) == 0 {
		return 0
	}
	var before, after []*ir.Instr
	fenced := make(map[*ir.Instr]bool)
	isSCFence := func(in *ir.Instr) bool { return in.Op == ir.OpFence && in.Ord == ir.SeqCst }
	for _, b := range f.Blocks {
		// Only a read inside one of f's optimistic loops can need a fence
		// before it, so only such a read's location is looked up.
		inLoop := false
		for _, ol := range loops {
			inLoop = inLoop || ol.loop.Blocks[b]
		}
		for i, in := range b.Instrs {
			if inLoop && in.Reads() && !fenced[in] {
				loc := am.Canon(am.Loc(in))
				for _, ol := range loops {
					if !ol.loop.Blocks[b] || !ol.ctl[loc] {
						continue
					}
					fenced[in] = true
					if i == 0 || !isSCFence(b.Instrs[i-1]) {
						before = append(before, in)
					}
					break
				}
			}
			if in.Writes() && !fenced[in] && optLocs[am.Canon(am.Loc(in))] {
				fenced[in] = true
				if i+1 >= len(b.Instrs) || !isSCFence(b.Instrs[i+1]) {
					after = append(after, in)
				}
			}
		}
	}
	for _, in := range before {
		transform.InsertFenceBefore(in)
	}
	for _, in := range after {
		transform.InsertFenceAfter(in)
	}
	return len(before) + len(after)
}
