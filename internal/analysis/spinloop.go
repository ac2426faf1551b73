package analysis

import (
	"sort"

	"repro/internal/alias"
	"repro/internal/ir"
)

// SpinloopInfo describes one detected spinloop (or optimistic loop) and
// the accesses AtoMig must transform for it.
type SpinloopInfo struct {
	Fn   *ir.Func
	Loop *Loop
	// Controls are the non-local reads that the loop's exit conditions
	// depend on — the spin controls (paper section 3.3).
	Controls []*ir.Instr
	// ControlLocs are the location descriptors of the controls, used for
	// alias exploration and for distinguishing optimistic reads.
	ControlLocs []alias.Loc
	// Optimistic reports whether the spinloop is an optimistic loop: it
	// reads non-local memory other than its spin controls and those
	// reads are used outside the loop (the sequence-lock pattern).
	Optimistic bool
	// OptimisticReads are the uncontrolled non-local reads inside the
	// loop whose values escape the loop.
	OptimisticReads []*ir.Instr
}

// Detector runs the spinloop detectors on one function, building the
// analyses they share on first use and only once: dominators and loops,
// then locality and influence. A loop-free function therefore builds no
// locality unless BarrierSeeds finds a compiler barrier.
type Detector struct {
	f      *ir.Func
	loops  []*Loop
	looped bool
	inf    *Influence
}

// NewDetector returns a detector for f.
func NewDetector(f *ir.Func) *Detector { return &Detector{f: f} }

func (d *Detector) findLoops() []*Loop {
	if !d.looped {
		d.loops, d.looped = FindLoops(d.f, Dominators(d.f)), true
	}
	return d.loops
}

func (d *Detector) influence() *Influence {
	if d.inf == nil {
		d.inf = NewInfluence(d.f, AnalyzeLocality(d.f))
	}
	return d.inf
}

// DetectSpinloops finds all spinloops in f. A loop qualifies when
// (1) every exit condition has a non-local dependency, and
// (2) every store in the loop whose value has no non-local dependency
// either writes a constant (and so cannot change the exit outcome) or
// does not feed any exit condition.
func DetectSpinloops(f *ir.Func) []*SpinloopInfo { return NewDetector(f).Spinloops() }

// Spinloops is DetectSpinloops on the detector's function.
func (d *Detector) Spinloops() []*SpinloopInfo {
	var out []*SpinloopInfo
	for _, loop := range d.findLoops() {
		if info := classifyLoop(d.f, loop, d.influence()); info != nil {
			out = append(out, info)
		}
	}
	return out
}

func classifyLoop(f *ir.Func, loop *Loop, inf *Influence) *SpinloopInfo {
	if len(loop.ExitBranches) == 0 {
		// An infinite loop with no exits has no conditions to protect.
		return nil
	}
	union := &Slice{Instrs: map[*ir.Instr]bool{}, NonLocalReads: map[*ir.Instr]bool{}}
	for _, br := range loop.ExitBranches {
		cond := br.Args[0]
		s := inf.SliceOf(cond)
		if !s.HasNonLocal {
			return nil // exit condition with purely local dependencies
		}
		for in := range s.Instrs {
			union.Instrs[in] = true
		}
		for in := range s.NonLocalReads {
			union.NonLocalReads[in] = true
		}
	}
	// Condition (2): a store inside the loop that feeds an exit condition
	// and whose stored value has no non-local dependency must be writing
	// a constant; otherwise the loop can terminate on its own (e.g. the
	// i++ of a bounded retry loop).
	locality := inf.Locality()
	for b := range loop.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if !union.Instrs[in] {
				continue // does not influence any exit condition
			}
			val := in.Args[1]
			vs := inf.SliceOf(val)
			if vs.HasNonLocal {
				continue // value tracks other threads: allowed
			}
			if ConstantValue(val) {
				continue // same value every iteration: cannot influence
			}
			// Stores through non-local pointers do not affect the local
			// exit computation chain directly; only local-slot stores can
			// silently count iterations.
			if locality.NonLocal(in.Args[0]) {
				continue
			}
			return nil
		}
	}
	// Spin controls: the non-local reads feeding exit conditions that are
	// themselves inside the loop. (Reads before the loop cannot re-sample
	// other threads' writes and need no transformation here; alias
	// exploration still reaches their locations.)
	info := &SpinloopInfo{Fn: f, Loop: loop}
	for in := range union.NonLocalReads {
		info.Controls = append(info.Controls, in)
	}
	// The slice union is a set; order the controls by instruction ID so
	// marking, seeding, and the ported output are deterministic.
	sort.Slice(info.Controls, func(i, j int) bool { return info.Controls[i].ID < info.Controls[j].ID })
	seenLoc := make(map[alias.Loc]bool)
	for _, in := range info.Controls {
		loc := alias.LocOf(in.Addr())
		if loc.Shared() && !seenLoc[loc] {
			seenLoc[loc] = true
			info.ControlLocs = append(info.ControlLocs, loc)
		}
	}
	detectOptimistic(f, info, inf, seenLoc)
	return info
}

// detectOptimistic checks the paper's optimistic-loop criterion: the
// spinloop contains a read of non-local memory distinct from all spin
// controls, whose value is used by an operation outside the loop.
func detectOptimistic(f *ir.Func, info *SpinloopInfo, inf *Influence, controlLocs map[alias.Loc]bool) {
	locality := inf.Locality()
	controlSet := make(map[*ir.Instr]bool, len(info.Controls))
	for _, c := range info.Controls {
		controlSet[c] = true
	}
	var candidates []*ir.Instr
	for _, b := range f.Blocks {
		if !info.Loop.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			if !in.Reads() || controlSet[in] {
				continue
			}
			if !locality.NonLocal(in.Args[0]) {
				continue
			}
			loc := alias.LocOf(in.Addr())
			if loc.Shared() && controlLocs[loc] {
				continue // another access to a spin-control location
			}
			candidates = append(candidates, in)
		}
	}
	if len(candidates) == 0 {
		return
	}
	for _, c := range candidates {
		if usedOutsideLoop(f, c, info.Loop, locality) {
			info.Optimistic = true
			info.OptimisticReads = append(info.OptimisticReads, c)
		}
	}
}

// usedOutsideLoop reports whether the value produced by read escapes the
// loop: some instruction outside the loop consumes it, directly or via a
// store to a local slot that is reloaded outside.
func usedOutsideLoop(f *ir.Func, read *ir.Instr, loop *Loop, locality *Locality) bool {
	tainted := map[*ir.Instr]bool{read: true}
	// Fixpoint forward taint. Uses are found by scanning (the IR keeps no
	// use lists); local-slot stores propagate taint to matching loads.
	for changed := true; changed; {
		changed = false
		escaped := false
		f.Instrs(func(in *ir.Instr) {
			if tainted[in] {
				return
			}
			for _, a := range in.Args {
				ai, ok := a.(*ir.Instr)
				if !ok || !tainted[ai] {
					continue
				}
				// Address operands of reads outside the loop do not carry
				// the optimistic value itself, but any data use does.
				tainted[in] = true
				changed = true
				if !loop.Blocks[in.Blk] {
					escaped = true
				}
				return
			}
			// Loads from local slots written by tainted stores.
			if in.Op == ir.OpLoad && !locality.NonLocal(in.Args[0]) {
				for _, st := range locality.LocalStoresTo(in.Args[0]) {
					if tainted[st] {
						tainted[in] = true
						changed = true
						if !loop.Blocks[in.Blk] {
							escaped = true
						}
						return
					}
				}
			}
		})
		if escaped {
			return true
		}
	}
	// A tainted instruction may itself sit outside the loop even when no
	// new taint was added in the final round.
	for in := range tainted {
		if !loop.Blocks[in.Blk] {
			return true
		}
	}
	return false
}
