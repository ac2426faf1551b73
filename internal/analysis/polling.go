package analysis

import "repro/internal/ir"

// This file implements the two detection extensions the paper's
// discussion section proposes beyond the shipped pipeline:
//
//  1. Timing-based polling loops: "synchronizing loops that choose to
//     terminate after a fixed number of iterations" escape the strict
//     spinloop definition. Treating every such loop as a spinloop would
//     drown the pipeline in false positives (any bounded search loop
//     over a global qualifies), but loops that also contain an explicit
//     wait hint — a pause/yield call, the idiom of bounded backoff — are
//     synchronization with high confidence.
//
//  2. Compiler barriers: a compiler barrier (asm volatile("":::"memory"))
//     compiles to no instruction at all, yet a developer placed it to
//     order *something*. The shared accesses around one are therefore
//     likely synchronization accesses, and make good additional seeds
//     for alias exploration.

// waitHintCallees are builtins that signal the thread is waiting for
// another thread (cpu_relax, sched_yield, nanosleep idioms).
var waitHintCallees = map[string]bool{
	"pause": true,
	"yield": true,
}

// DetectPollingLoops finds loops that fail the strict spinloop
// definition (they have a local exit, e.g. a bounded retry counter) but
// contain a wait hint and exit conditions with non-local dependencies.
// The returned SpinloopInfo carries the non-local reads to be treated
// as spin controls; polling loops are never classified optimistic.
func DetectPollingLoops(f *ir.Func) []*SpinloopInfo {
	d := NewDetector(f)
	return d.PollingLoops(d.Spinloops())
}

// PollingLoops is DetectPollingLoops on the detector's function, given
// its strict spinloops.
func (d *Detector) PollingLoops(strict []*SpinloopInfo) []*SpinloopInfo {
	isStrict := make(map[*ir.Block]bool)
	for _, info := range strict {
		isStrict[info.Loop.Header] = true
	}
	var out []*SpinloopInfo
	for _, loop := range d.findLoops() {
		if isStrict[loop.Header] || len(loop.ExitBranches) == 0 {
			continue
		}
		if !loopHasWaitHint(loop) {
			continue
		}
		info := &SpinloopInfo{Fn: d.f, Loop: loop}
		seen := map[*ir.Instr]bool{}
		for _, br := range loop.ExitBranches {
			s := d.influence().SliceOf(br.Args[0])
			for rd := range s.NonLocalReads {
				if !seen[rd] {
					seen[rd] = true
					info.Controls = append(info.Controls, rd)
				}
			}
		}
		if len(info.Controls) == 0 {
			continue
		}
		out = append(out, info)
	}
	return out
}

func loopHasWaitHint(loop *Loop) bool {
	for b := range loop.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && waitHintCallees[in.Callee] {
				return true
			}
		}
	}
	return false
}

// CompilerBarrierSeeds returns the shared memory accesses adjacent to
// compiler-barrier markers: for each call to @compiler_barrier, every
// non-local access in the same basic block. These become additional
// seeds for alias exploration.
func CompilerBarrierSeeds(f *ir.Func) []*ir.Instr { return NewDetector(f).BarrierSeeds() }

// BarrierSeeds is CompilerBarrierSeeds on the detector's function.
func (d *Detector) BarrierSeeds() []*ir.Instr {
	var seeds []*ir.Instr
	for _, b := range d.f.Blocks {
		barrierHere := false
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == "compiler_barrier" {
				barrierHere = true
				break
			}
		}
		if !barrierHere {
			continue
		}
		locality := d.influence().Locality()
		for _, in := range b.Instrs {
			if in.IsMemAccess() && locality.NonLocal(in.Args[0]) {
				seeds = append(seeds, in)
			}
		}
	}
	return seeds
}
