// The finding minimizer: from a production-scale stress finding to a
// litmus-sized program the model checker can confirm exhaustively.
//
// A race report against a 100k-line module is evidence, not a
// deliverable: nobody audits a schedule seed, and the model checker
// cannot exhaustively explore a module that size to rule the report a
// false alarm (the stress engine never produces one, but the claim
// should not rest on trusting the engine). Minimize applies delta
// debugging specialized to the module structure — drop entry threads,
// prune unreachable code, delete calls, shrink loop bounds — with a
// deterministic fixed-budget stress sweep as the reproduction oracle,
// then hands the shrunken program to mc.Check with race detection on.
// The result is a litmus-sized module whose race the checker confirms
// over the full interleaving space: the stress finding, upgraded to a
// proof.
//
// Determinism: every pass visits candidates in module order, the
// oracle's schedule grid is fixed by MinimizeOptions, and nothing
// consults wall clocks or maps without sorting — the same module and
// finding always minimize to the byte-identical program (pinned by
// golden test).
package stress

import (
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/race"
)

// MinimizeOptions configures a minimization.
type MinimizeOptions struct {
	// Model is the memory model (default ModelWMM, like the sweep's).
	Model memmodel.Model
	// Entries are the original module's entry threads.
	Entries []string
	// Target is the race to preserve, matched by its symbolic location
	// (Report.Loc): site strings embed instruction indices that shift as
	// code is deleted, but the racy location is invariant under the
	// reductions.
	Target *race.Report
	// Seeds is the oracle budget: schedules per scheduler mode for each
	// reproduction sweep (0 = 16). The oracle is strict — the candidate
	// must re-expose the target race AND stay violation- and
	// livelock-free — so a semantics-breaking reduction (say, shrinking
	// a spin-wait's bound) is rejected even though the race might
	// survive it.
	Seeds int
	// MaxSteps bounds each oracle schedule (0 = the sweep default).
	MaxSteps int64
	// Workers parallelizes the oracle sweeps (the result is
	// worker-count-invariant).
	Workers int
	// Rounds caps the call-deletion fixpoint (0 = 3).
	Rounds int
	// ConfirmExecs and ConfirmBudget bound the final exhaustive
	// confirmation (0 = 200_000 executions / 30s).
	ConfirmExecs  int
	ConfirmBudget time.Duration
	// Obs, when non-nil, records stress.minimize_* counters.
	Obs *obs.Provider
}

// MinimizeResult is a finished minimization.
type MinimizeResult struct {
	// Module is the minimized program (a reduced clone; the input module
	// is never touched).
	Module *ir.Module
	// Entries are the surviving entry threads.
	Entries []string
	// TargetLoc is the preserved race's location.
	TargetLoc alias.Loc
	// Reductions counts accepted reduction steps; Checks counts oracle
	// sweeps (accepted + rejected + the initial and final validations).
	Reductions, Checks int
	// Funcs and Instrs measure the result (litmus-sized: compare
	// OrigFuncs/OrigInstrs).
	Funcs, Instrs         int
	OrigFuncs, OrigInstrs int
	// Schedule is a schedule of the oracle grid that re-exposes the race
	// on the minimized module — the reproduction recipe shipped with the
	// program.
	Schedule Schedule
	// Report is the race as the oracle last observed it on the minimized
	// module (sites refer to the minimized code).
	Report *race.Report
	// Confirm is the exhaustive confirmation: mc.Check over the
	// minimized module with race detection on. A VerdictRace with the
	// target location among Confirm.Races upgrades the stress finding to
	// a model-checked fact; anything else returns an error alongside the
	// result.
	Confirm *mc.Result
}

// minimizer carries one minimization's state.
type minimizer struct {
	opts   MinimizeOptions
	target alias.Loc
	mod    *ir.Module
	ents   []string
	checks int
	steps  int
	// last reproduction evidence (refreshed by every passing oracle run)
	lastSchedule Schedule
	lastReport   *race.Report
}

// Minimize shrinks the module around the target race and confirms the
// result exhaustively. On oracle or confirmation failure the error
// explains which claim broke; the partially minimized result is
// returned alongside the error when minimization itself succeeded.
func Minimize(m *ir.Module, opts MinimizeOptions) (res *MinimizeResult, err error) {
	defer diag.Guard("stress.Minimize", &err)
	if opts.Target == nil {
		return nil, fmt.Errorf("stress: minimize needs a target race report")
	}
	if !opts.Target.Loc.Shared() {
		return nil, fmt.Errorf("stress: target race location %s is not a shared location", opts.Target.Loc)
	}
	opts.Model = opts.Model.Or(memmodel.ModelWMM)
	if opts.Seeds == 0 {
		opts.Seeds = 16
	}
	if opts.Rounds == 0 {
		opts.Rounds = 3
	}
	if opts.ConfirmExecs == 0 {
		opts.ConfirmExecs = 200_000
	}
	if opts.ConfirmBudget == 0 {
		opts.ConfirmBudget = 30 * time.Second
	}

	clone, err := ir.CloneModule(m)
	if err != nil {
		return nil, fmt.Errorf("stress: minimize clone: %w", err)
	}
	clone.Name = m.Name + "-min"
	mz := &minimizer{
		opts:   opts,
		target: opts.Target.Loc,
		mod:    clone,
		ents:   append([]string(nil), opts.Entries...),
	}
	origFuncs, origInstrs := moduleSize(clone)

	sp := opts.Obs.Track("stress").Begin("stress.minimize").
		Arg("module", m.Name).Arg("target", mz.target.String())
	defer sp.End()

	if !mz.reproduces(mz.mod, mz.ents) {
		return nil, fmt.Errorf("stress: target race on %s does not reproduce under the oracle budget (%d seeds/mode); raise MinimizeOptions.Seeds", mz.target, opts.Seeds)
	}

	mz.dropEntries()
	mz.prune()
	for r := 0; r < opts.Rounds; r++ {
		n := mz.deleteCalls()
		n += mz.simplifyBranches()
		n += mz.deleteChunks()
		mz.prune()
		if n == 0 {
			break
		}
	}
	mz.shrinkConsts()
	mz.dropEntries()
	mz.prune()

	// Final validation refreshes the shipped schedule and report.
	if !mz.reproduces(mz.mod, mz.ents) {
		return nil, fmt.Errorf("stress: minimized module lost the race (minimizer bug)")
	}

	funcs, instrs := moduleSize(mz.mod)
	out := &MinimizeResult{
		Module: mz.mod, Entries: mz.ents, TargetLoc: mz.target,
		Reductions: mz.steps, Checks: mz.checks,
		Funcs: funcs, Instrs: instrs, OrigFuncs: origFuncs, OrigInstrs: origInstrs,
		Schedule: mz.lastSchedule, Report: mz.lastReport,
	}
	opts.Obs.Counter("stress.minimize_reductions").Add(int64(mz.steps))
	opts.Obs.Counter("stress.minimize_checks").Add(int64(mz.checks))
	sp.Arg("reductions", mz.steps).Arg("instrs", instrs)

	conf, err := mc.Check(mz.mod, mc.Options{
		Model:         opts.Model,
		Entries:       mz.ents,
		DetectRaces:   true,
		MaxExecutions: opts.ConfirmExecs,
		TimeBudget:    opts.ConfirmBudget,
		Workers:       opts.Workers,
		Obs:           opts.Obs,
	})
	if err != nil {
		return out, fmt.Errorf("stress: exhaustive confirmation: %w", err)
	}
	out.Confirm = conf
	if conf.Verdict != mc.VerdictRace {
		return out, fmt.Errorf("stress: exhaustive confirmation returned %s, want %s (violations: %v)",
			conf.Verdict, mc.VerdictRace, conf.Violations)
	}
	for _, r := range conf.Races {
		if r.Loc == mz.target {
			return out, nil
		}
	}
	return out, fmt.Errorf("stress: checker confirmed races but none on the target location %s", mz.target)
}

// reproduces runs the fixed-budget oracle sweep: the candidate must
// re-expose the target race with zero violations and zero step-limited
// schedules (strictness keeps semantics-breaking reductions out — see
// MinimizeOptions.Seeds).
func (mz *minimizer) reproduces(mod *ir.Module, entries []string) bool {
	mz.checks++
	res, err := Sweep(mod, Options{
		Model:    mz.opts.Model,
		Entries:  entries,
		Seeds:    mz.opts.Seeds,
		MaxSteps: mz.opts.MaxSteps,
		Workers:  mz.opts.Workers,
		Obs:      mz.opts.Obs,
	})
	if err != nil || res.StepLimited > 0 {
		return false
	}
	var hit *Finding
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Kind == FindingViolation {
			return false
		}
		if hit == nil && f.Report.Loc == mz.target {
			hit = f
		}
	}
	if hit == nil {
		return false
	}
	mz.lastSchedule = hit.Schedule
	mz.lastReport = hit.Report
	return true
}

// dropEntries removes entry threads one at a time, keeping at least
// two (a race needs two threads).
func (mz *minimizer) dropEntries() {
	for i := 0; i < len(mz.ents) && len(mz.ents) > 2; {
		cand := make([]string, 0, len(mz.ents)-1)
		cand = append(cand, mz.ents[:i]...)
		cand = append(cand, mz.ents[i+1:]...)
		if mz.reproduces(mz.mod, cand) {
			mz.ents = cand
			mz.steps++
		} else {
			i++
		}
	}
}

// prune rebuilds the module with only the functions reachable from the
// surviving entries and only the globals those functions reference.
// Semantics-preserving by construction; the next oracle run (every
// pass ends in one) backstops the claim.
func (mz *minimizer) prune() {
	keep := mz.mod.Reachable(mz.ents)
	used := make(map[*ir.Global]bool)
	for _, f := range mz.mod.Funcs {
		if !keep[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) {
			for _, a := range in.Args {
				if g, ok := a.(*ir.Global); ok {
					used[g] = true
				}
			}
		})
	}
	out := ir.NewModule(mz.mod.Name)
	for _, st := range mz.mod.Structs {
		_ = out.AddStruct(st)
	}
	for _, g := range mz.mod.Globals {
		if used[g] {
			if err := out.AddGlobal(g); err != nil {
				return // duplicate would be a module bug; keep the old module
			}
		}
	}
	for _, f := range mz.mod.Funcs {
		if keep[f] {
			if err := out.AddFunc(f); err != nil {
				return
			}
		}
	}
	dropped := (len(mz.mod.Funcs) - len(out.Funcs)) + (len(mz.mod.Globals) - len(out.Globals))
	for _, f := range out.Funcs {
		dropped += pruneBlocks(f)
	}
	if dropped > 0 {
		mz.steps += dropped
	}
	mz.mod = out
}

// pruneBlocks drops a function's blocks that are unreachable from its
// entry (the residue of simplifyBranches), returning the count. Kept
// blocks cannot reference dead-block values: definitions dominate uses.
func pruneBlocks(f *ir.Func) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	keep := map[*ir.Block]bool{f.Entry(): true}
	stack := []*ir.Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !keep[s] {
				keep[s] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if keep[b] {
			kept = append(kept, b)
		}
	}
	dropped := len(f.Blocks) - len(kept)
	f.Blocks = kept
	return dropped
}

// simplifyBranches rewrites conditional branches to unconditional ones
// where the oracle allows it — the pass that collapses inlined spin
// loops (branch straight to the exit: the loop body becomes dead) after
// the port pipeline has inlined every helper into the entries.
func (mz *minimizer) simplifyBranches() int {
	accepted := 0
	for _, f := range mz.mod.Funcs {
		for _, b := range f.Blocks {
			in := b.Terminator()
			if in == nil || in.Op != ir.OpBr || in.Else == nil {
				continue
			}
			savedArgs, savedThen, savedElse := in.Args, in.Then, in.Else
			// Else first: in the frontend's loop lowering Else is the
			// exit, so this skips the loop outright.
			for _, target := range []*ir.Block{savedElse, savedThen} {
				in.Args, in.Then, in.Else = nil, target, nil
				if mz.reproduces(mz.mod, mz.ents) {
					accepted++
					mz.steps++
					break
				}
				in.Args, in.Then, in.Else = savedArgs, savedThen, savedElse
			}
		}
	}
	return accepted
}

// deleteChunks is ddmin-style straightline deletion: per block, try to
// delete the whole non-terminator body in one oracle check, splitting
// on failure down to single instructions. Filler code vanishes in a
// handful of checks instead of one check per instruction.
func (mz *minimizer) deleteChunks() int {
	accepted := 0
	for _, f := range mz.mod.Funcs {
		for _, b := range f.Blocks {
			end := len(b.Instrs)
			if end > 0 && b.Instrs[end-1].IsTerminator() {
				end--
			}
			accepted += mz.reduceRange(f, b, 0, end)
		}
	}
	return accepted
}

// reduceRange deletes as much of b.Instrs[lo:hi) as the oracle allows,
// whole range first, then by bisection. The right half reduces first so
// the left half's indices stay valid.
func (mz *minimizer) reduceRange(f *ir.Func, b *ir.Block, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	if mz.tryDeleteRange(f, b, lo, hi) {
		return hi - lo
	}
	if hi-lo == 1 {
		return 0
	}
	mid := (lo + hi) / 2
	n := mz.reduceRange(f, b, mid, hi)
	return n + mz.reduceRange(f, b, lo, mid)
}

// tryDeleteRange attempts to delete b.Instrs[lo:hi), replacing
// references from surviving instructions to deleted integer results
// with the constant 0. Ranges whose non-integer results (pointers) leak
// out are not deletable as-is; the bisection isolates them.
func (mz *minimizer) tryDeleteRange(f *ir.Func, b *ir.Block, lo, hi int) bool {
	removed := append([]*ir.Instr(nil), b.Instrs[lo:hi]...)
	inRange := make(map[*ir.Instr]bool, len(removed))
	for _, in := range removed {
		inRange[in] = true
	}
	type rangeUse struct {
		in   *ir.Instr
		idx  int
		orig ir.Value
	}
	var uses []rangeUse
	ok := true
	f.Instrs(func(in *ir.Instr) {
		if inRange[in] {
			return
		}
		for i, a := range in.Args {
			ref, isInstr := a.(*ir.Instr)
			if !isInstr || !inRange[ref] {
				continue
			}
			if _, isInt := ref.Ty.(*ir.IntType); !isInt {
				ok = false
				return
			}
			uses = append(uses, rangeUse{in, i, a})
		}
	})
	if !ok {
		return false
	}
	for _, u := range uses {
		ref := u.orig.(*ir.Instr)
		u.in.Args[u.idx] = ir.ConstOf(ref.Ty.(*ir.IntType), 0)
	}
	b.Instrs = append(b.Instrs[:lo], b.Instrs[hi:]...)
	if mz.reproduces(mz.mod, mz.ents) {
		mz.steps += len(removed)
		return true
	}
	// revert: reinsert the range at lo and restore the use sites
	tail := append([]*ir.Instr(nil), b.Instrs[lo:]...)
	b.Instrs = append(b.Instrs[:lo], removed...)
	b.Instrs = append(b.Instrs, tail...)
	for _, u := range uses {
		u.in.Args[u.idx] = u.orig
	}
	return false
}

// deleteCalls tries to delete each call instruction (replacing a used
// result with the constant 0), accepting deletions the oracle upholds.
// Returns the number of accepted deletions.
func (mz *minimizer) deleteCalls() int {
	accepted := 0
	for _, f := range mz.mod.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); {
				in := b.Instrs[i]
				if in.Op != ir.OpCall {
					i++
					continue
				}
				uses := usesOf(f, in)
				ty, isInt := in.Ty.(*ir.IntType)
				if len(uses) > 0 && !isInt {
					i++ // result used and not replaceable by an int constant
					continue
				}
				zero := ir.Value(nil)
				if len(uses) > 0 {
					zero = ir.ConstOf(ty, 0)
				}
				for _, u := range uses {
					u.in.Args[u.idx] = zero
				}
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				if mz.reproduces(mz.mod, mz.ents) {
					accepted++
					mz.steps++
					continue // same index now holds the next instruction
				}
				// revert
				b.Instrs = append(b.Instrs, nil)
				copy(b.Instrs[i+1:], b.Instrs[i:])
				b.Instrs[i] = in
				for _, u := range uses {
					u.in.Args[u.idx] = in
				}
				i++
			}
		}
	}
	return accepted
}

// use is one (instruction, argument-index) reference to a value.
type use struct {
	in  *ir.Instr
	idx int
}

// usesOf lists the in-function references to a call's result.
func usesOf(f *ir.Func, v *ir.Instr) []use {
	var out []use
	f.Instrs(func(in *ir.Instr) {
		for i, a := range in.Args {
			if a == ir.Value(v) {
				out = append(out, use{in, i})
			}
		}
	})
	return out
}

// shrinkConsts halves integer-compare constants toward 1: loop trip
// counts and iteration bounds collapse while spin-wait sentinels (whose
// shrinking breaks the protocol) are rejected by the oracle.
func (mz *minimizer) shrinkConsts() {
	for _, f := range mz.mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpICmp {
					continue
				}
				for ai, a := range in.Args {
					c, ok := a.(*ir.ConstInt)
					if !ok {
						continue
					}
					for c.V > 1 {
						cand := ir.ConstOf(c.Ty, c.V/2)
						in.Args[ai] = cand
						if !mz.reproduces(mz.mod, mz.ents) {
							in.Args[ai] = c
							break
						}
						c = cand
						mz.steps++
					}
				}
			}
		}
	}
}

// moduleSize measures a module for the minimization report.
func moduleSize(m *ir.Module) (funcs, instrs int) {
	funcs = len(m.Funcs)
	for _, f := range m.Funcs {
		instrs += f.NumInstrs()
	}
	return
}
