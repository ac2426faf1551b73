// Package transform implements the program transformations of the
// atomig pipeline (paper sections 3.2–3.4) plus the two baseline porting
// strategies the paper evaluates against: the Naïve all-SC strategy and
// a Lasagne-style explicit-fence strategy.
package transform

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// MakeAccessSC upgrades a memory access to a sequentially consistent
// atomic access (an implicit barrier on Arm: LDAR/STLR or an
// acquire/release exclusive pair). It reports whether the instruction
// changed.
func MakeAccessSC(in *ir.Instr, mark ir.Mark) bool {
	if !in.IsMemAccess() {
		panic(fmt.Sprintf("transform: MakeAccessSC on non-access %s", in))
	}
	in.SetMark(mark)
	if in.Ord == ir.SeqCst {
		return false
	}
	in.Ord = ir.SeqCst
	return true
}

// insertFence splices a seq_cst fence into the block containing anchor,
// immediately before (offset 0) or after (offset 1) it.
func insertFence(anchor *ir.Instr, offset int) *ir.Instr {
	blk := anchor.Blk
	pos := -1
	for i, in := range blk.Instrs {
		if in == anchor {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic("transform: anchor not in its block")
	}
	f := &ir.Instr{
		Op: ir.OpFence, ID: blk.Fn.NextID(), Blk: blk, Ty: ir.Void,
		Ord: ir.SeqCst, Marks: ir.MarkInsertedFence,
	}
	at := pos + offset
	blk.Instrs = append(blk.Instrs, nil)
	copy(blk.Instrs[at+1:], blk.Instrs[at:])
	blk.Instrs[at] = f
	return f
}

// InsertFenceBefore inserts an explicit seq_cst fence before anchor.
func InsertFenceBefore(anchor *ir.Instr) *ir.Instr { return insertFence(anchor, 0) }

// InsertFenceAfter inserts an explicit seq_cst fence after anchor.
func InsertFenceAfter(anchor *ir.Instr) *ir.Instr { return insertFence(anchor, 1) }

// ExplicitStats reports what the explicit-annotation pass found and
// changed.
type ExplicitStats struct {
	// VolatileConverted counts volatile accesses turned into SC atomics.
	VolatileConverted int
	// AtomicUpgraded counts existing atomics whose (weaker) order was
	// raised to seq_cst.
	AtomicUpgraded int
	// Fences and Atomics are the barrier inventory the pass found, as
	// CountBarriers counts it, before it changed anything.
	Fences, Atomics int
}

// UpgradeExplicitAnnotations implements paper section 3.2: accesses to
// volatile locations become SC atomics, and existing atomic accesses
// with any weaker memory order are raised to SC (on TSO most orders are
// indistinguishable, so legacy code frequently picks one that is too
// weak for WMM). Inline-assembly barriers were already mapped to
// builtins/fences by the frontend.
func UpgradeExplicitAnnotations(m *ir.Module) ExplicitStats {
	var st ExplicitStats
	for _, f := range m.Funcs {
		fst := UpgradeExplicitAnnotationsFunc(f)
		st.VolatileConverted += fst.VolatileConverted
		st.AtomicUpgraded += fst.AtomicUpgraded
		st.Fences += fst.Fences
		st.Atomics += fst.Atomics
	}
	return st
}

// UpgradeExplicitAnnotationsFunc is the per-function unit of the
// explicit-annotation pass. It touches only instructions of f, so the
// pipeline may run it on distinct functions concurrently.
func UpgradeExplicitAnnotationsFunc(f *ir.Func) ExplicitStats {
	var st ExplicitStats
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpFence {
			st.Fences++
		}
		if !in.IsMemAccess() {
			return
		}
		if in.Ord.Atomic() {
			st.Atomics++
		}
		switch {
		case in.Volatile && in.Ord != ir.SeqCst:
			MakeAccessSC(in, ir.MarkFromVolatile)
			st.VolatileConverted++
		case in.Ord.Atomic() && in.Ord != ir.SeqCst:
			MakeAccessSC(in, ir.MarkFromAtomic)
			st.AtomicUpgraded++
		}
	})
	return st
}

// Naive implements the naïve porting strategy from the paper's Table 1:
// every access that may touch shared (non-provably-local) memory becomes
// a sequentially consistent atomic. Safe, scalable — and slow. Returns
// the number of accesses converted.
func Naive(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		loc := analysis.AnalyzeLocality(f)
		f.Instrs(func(in *ir.Instr) {
			if !in.IsMemAccess() {
				return
			}
			if !loc.NonLocal(in.Args[0]) {
				return
			}
			if MakeAccessSC(in, ir.MarkNaive) {
				n++
			}
		})
	}
	return n
}

// LasagneStats reports the Lasagne-style baseline's work.
type LasagneStats struct {
	FencesInserted int
	FencesElided   int
}

// LasagneStyle implements a barrier-removal baseline modeled on Lasagne
// (PLDI 2022): first make the program sequentially consistent using
// explicit fences around every potentially-shared access (binary-lifting
// tools cannot use implicit barriers because they cannot re-type
// accesses), then remove provably redundant fences. The removal pass
// elides fences for provably function-local accesses and merges adjacent
// fences. The paper's Table 6 shows this strategy costs more than Naïve
// because explicit fences are substantially slower than implicit ones.
func LasagneStyle(m *ir.Module) LasagneStats {
	var st LasagneStats
	for _, f := range m.Funcs {
		loc := analysis.AnalyzeLocality(f)
		var shared []*ir.Instr
		f.Instrs(func(in *ir.Instr) {
			if in.IsMemAccess() && loc.NonLocal(in.Args[0]) {
				shared = append(shared, in)
			}
		})
		for _, in := range shared {
			// A fence before each shared load and around each shared
			// store restores SC ordering among shared accesses.
			if in.Reads() {
				InsertFenceBefore(in)
				st.FencesInserted++
			}
			if in.Writes() {
				InsertFenceAfter(in)
				st.FencesInserted++
			}
		}
	}
	st.FencesElided = mergeAdjacentFences(m)
	return st
}

// mergeAdjacentFences removes a fence when the immediately preceding
// instruction in the same block is also a fence of equal or stronger
// order — the formally verified "redundant barrier" elimination from the
// barrier-removal literature. Returns the number removed.
func mergeAdjacentFences(m *ir.Module) int {
	removed := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			var prev *ir.Instr
			for _, in := range b.Instrs {
				if in.Op == ir.OpFence && prev != nil && prev.Op == ir.OpFence && prev.Ord >= in.Ord {
					removed++
					continue
				}
				out = append(out, in)
				prev = in
			}
			b.Instrs = out
		}
	}
	return removed
}

// CountBarriers tallies the synchronization constructs present in a
// module: explicit fences and implicit barriers (atomic accesses).
func CountBarriers(m *ir.Module) (explicit, implicit int) {
	for _, f := range m.Funcs {
		e, i := CountFuncBarriers(f)
		explicit += e
		implicit += i
	}
	return explicit, implicit
}

// CountFuncBarriers is CountBarriers for one function.
func CountFuncBarriers(f *ir.Func) (explicit, implicit int) {
	f.Instrs(func(in *ir.Instr) {
		switch {
		case in.Op == ir.OpFence:
			explicit++
		case in.IsMemAccess() && in.Ord.Atomic():
			implicit++
		}
	})
	return explicit, implicit
}
