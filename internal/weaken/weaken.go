// Package weaken is the checker-in-the-loop barrier-weakening
// optimizer: it takes a ported module — where the atomig pipeline made
// every synchronization access seq_cst and inserted seq_cst fences —
// and greedily weakens it to a fixpoint, keeping only the weakenings
// the model checker proves safe (in the style of "Verifying and
// Optimizing Compact NUMA-Aware Locks on Weak Memory Models").
//
// Each atomic access walks a role-specific ladder (loads seq_cst →
// acquire → relaxed, stores seq_cst → release → relaxed, RMWs seq_cst
// → acq_rel → acquire/release → relaxed) and each fence walks seq_cst
// → acq_rel → acquire/release → deletion. A candidate step is accepted
// only when `internal/mc` re-verifies the weakened program under the
// WMM machine with race detection on: the verdict must equal the
// baseline verdict of the ported module, no new race (by report key)
// may appear, and an `unknown` verdict — budget exhausted — rejects
// the candidate. A module whose baseline verdict is `violated` is
// refused outright: the optimizer only transforms programs whose
// checkable specification currently holds.
//
// The loop is round-based and group-tested. A round first verifies the
// first alternative of every site as one batch against the live module
// and commits it whole when it is accepted. Otherwise a screening fan-out
// (Options.Workers) checks every candidate against a private clone of
// the current module, and a sequential merge commits the survivors in
// site order, verifying them as one cumulative batch and bisecting only
// on rejection — two weakenings each safe alone may be unsafe together,
// and only the cumulative check can admit them. Weakening only adds
// behaviours, so acceptance is monotone and the result equals merging
// the survivors one at a time (TestGroupMergeMatchesReference).
// Screening verdicts and the merge order are both deterministic, so
// the weakened module is byte-identical for every worker count
// (TestWeakenDeterministicAcrossWorkers).
//
// docs/WEAKENING.md is the subsystem reference: algorithm, cost
// model, soundness argument, and budget semantics.
package weaken

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/diag"
	"repro/internal/fanout"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/race"
)

// Options configures an optimization run.
type Options struct {
	// Model is the machine the checker re-verifies under
	// (default ModelWMM — weakening against SC or TSO would certify
	// orderings those machines provide for free).
	Model memmodel.Model
	// Entries are the thread entry functions of the verification
	// harness; required.
	Entries []string
	// DetectRaces runs every re-verification with the happens-before
	// detector on, adding "no new race report keys" to the acceptance
	// rule. DefaultOptions turns it on; turn it off only for programs
	// whose fingerprinted state space is intractable (the acceptance
	// rule is then verdict-only — see docs/WEAKENING.md).
	DetectRaces bool
	// Workers sets the screening fan-out: that many goroutines check
	// independent candidates of a round in parallel, each against its
	// own clone of the module (0 or 1 = sequential). The weakened
	// module is byte-identical for every value.
	Workers int
	// MaxExecs bounds each candidate re-verification's explored
	// executions (0 = 200_000). An exhausted budget yields an unknown
	// verdict, which rejects the candidate — never accepts it.
	MaxExecs int
	// MaxStepsPerExec bounds each execution (0 = the mc default).
	MaxStepsPerExec int64
	// TimeBudget bounds each candidate re-verification's wall clock
	// (0 = 30s). Determinism across worker counts is guaranteed as
	// long as no candidate trips the time budget; the deterministic
	// budget knob is MaxExecs.
	TimeBudget time.Duration
	// Arch selects the static cost model ("" = DefaultArch). The cost
	// model never gates acceptance — only the checker does — but every
	// ladder step strictly decreases it, so accepted weakenings
	// monotonically lower the module cost.
	Arch string
	// Oracle selects the verification oracle (oracle.go,
	// docs/STRESS.md). OracleExhaustive (the default) verifies the
	// baseline and every commit with the bounded-exhaustive checker. It
	// screens candidates with the checker too, or, when the baseline
	// check explored more than stressScreenAbove executions, with a
	// fixed-budget stress sweep: the same weakened module either way,
	// at a lower cost. OracleStress runs every check on the stress
	// engine, for programs beyond exhaustive reach; acceptance then
	// means "no regression witnessed under the schedule budget", not a
	// proof.
	Oracle OracleMode
	// StressSeeds is OracleStress's screening budget: schedules per
	// scheduler mode per check (0 = 32). OracleStress spends four times
	// as many on its baseline and merge checks. The default oracle's
	// stress screens ignore it.
	StressSeeds int
	// StressSample is OracleStress's per-location sampling fraction,
	// 0 < f <= 1 (0 = 1: observe every location; see
	// stress.Options.Sample for the soundness boundary). The default
	// oracle's stress screens ignore it and observe every location.
	StressSample float64
	// Context, when non-nil, cancels the optimization between
	// candidate verifications; the module is left in the last
	// verified state (every committed weakening has already been
	// re-verified cumulatively, and a batch applied for a check that
	// is canceled is reverted, so a canceled run is still sound).
	Context context.Context
	// Obs, when non-nil, receives the run's weaken.* counters once, when
	// it returns without error, a weaken.verify_micros observation per
	// verification, and spans (docs/OBSERVABILITY.md).
	Obs *obs.Provider
}

// DefaultOptions returns the standard configuration for a harness.
func DefaultOptions(entries []string) Options {
	return Options{Model: memmodel.ModelWMM, Entries: entries, DetectRaces: true}
}

// Decision is one accepted weakening, with full provenance: where,
// what it was, what it became, which round committed it, and what it
// saved under the run's cost model.
type Decision struct {
	// Fn is the containing function; Site the access/fence rendering
	// with block and index provenance (race.SiteString format).
	Fn   string `json:"fn"`
	Site string `json:"site"`
	// Loc is the symbolic alias descriptor of the accessed location
	// ("@global" or "%struct:field"); empty for fences and dynamic
	// addresses. It is the join key the migration feedback loop
	// (-explain-races) uses to cross-reference weakened sites.
	Loc string `json:"loc,omitempty"`
	// Kind is "load", "store", "rmw", "cmpxchg" or "fence".
	Kind string `json:"kind"`
	// From and To are the orderings before and after ("seq_cst" →
	// "acquire", ...); To is "deleted" for a removed fence.
	From string `json:"from"`
	To   string `json:"to"`
	// Deleted marks a fence removed outright.
	Deleted bool `json:"deleted,omitempty"`
	// Round is the 1-based optimization round that committed this step.
	Round int `json:"round"`
	// CostDelta is the static cost saved by this step (positive).
	CostDelta int64 `json:"cost_delta"`
}

func (d Decision) String() string {
	to := d.To
	if d.Deleted {
		to = "deleted"
	}
	return fmt.Sprintf("%s: %s -> %s (round %d, -%d cycles)", d.Site, d.From, to, d.Round, d.CostDelta)
}

// Result reports an optimization run.
type Result struct {
	Module string `json:"module"`
	// Arch is the cost model the run priced against.
	Arch string `json:"arch"`
	// Workers is the screening fan-out the run used (>= 1). It never
	// influences the weakened module, only wall clock.
	Workers int `json:"workers"`
	// Verdict is the baseline verdict of the input module, which every
	// accepted candidate preserved ("verified" or "racy"; under the
	// stress oracle "stress-clean" or "stress-racy" — a witness, not a
	// proof); the final module re-verifies to exactly this verdict.
	Verdict string `json:"verdict"`
	// Oracle names the verification oracle when it is not the default
	// exhaustive checker ("stress").
	Oracle string `json:"oracle,omitempty"`
	// Reason is set when the optimizer refused to run (baseline
	// violated or unknown); the module is unchanged.
	Reason string `json:"reason,omitempty"`

	// CostBefore and CostAfter are the static synchronization costs of
	// the optimization scope — the functions reachable from the
	// verification entries — before and after weakening. Unreachable
	// functions are never candidates (the checker cannot vouch for
	// code it does not execute), keep their ported orderings, and are
	// excluded from the cost so the reduction measures exactly what
	// the run verified.
	CostBefore int64 `json:"cost_before"`
	CostAfter  int64 `json:"cost_after"`
	// FuncsInScope and FuncsSkipped count the functions reachable and
	// not reachable from the entries; skipped functions stay at ported
	// strength.
	FuncsInScope int `json:"funcs_in_scope"`
	FuncsSkipped int `json:"funcs_skipped,omitempty"`

	// Tried / Accepted / Rejected count candidates by outcome. Accepted
	// candidates were committed (Accepted == len(Decisions)); rejected
	// ones failed a screen or were blamed by bisection; Tried is their
	// sum. A candidate passed over because an earlier alternative of
	// its site committed has no outcome and is not counted. One
	// verification can vouch for many candidates: MCChecks and
	// StressChecks are the verification cost.
	Tried    int `json:"tried"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Rounds is the number of optimization rounds run to the fixpoint.
	Rounds int `json:"rounds"`
	// FencesDeleted counts fences removed outright.
	FencesDeleted int `json:"fences_deleted"`

	// Decisions is the accepted weakening set in deterministic site
	// order per round.
	Decisions []Decision `json:"decisions,omitempty"`

	// MCChecks and MCExecutions total the exhaustive checker work spent
	// (baseline + batches + screening + bisection); MCTime is its wall
	// clock, as the checker timed it.
	MCChecks     int           `json:"mc_checks"`
	MCExecutions int           `json:"mc_executions"`
	MCTime       time.Duration `json:"mc_time_ns"`
	// StressChecks and StressSchedules total the stress sweeps' work —
	// every check under OracleStress, the candidate screens of a default
	// run above stressScreenAbove baseline executions; StressTime is
	// their wall clock, as the sweeps timed it. All zero when no sweep
	// ran.
	StressChecks    int           `json:"stress_checks,omitempty"`
	StressSchedules int           `json:"stress_schedules,omitempty"`
	StressTime      time.Duration `json:"stress_time_ns,omitempty"`
	// Duration is the whole optimization's wall clock.
	Duration time.Duration `json:"duration_ns"`
}

// Reduction returns the relative static cost reduction in percent.
func (r *Result) Reduction() float64 {
	if r.CostBefore == 0 {
		return 0
	}
	return 100 * float64(r.CostBefore-r.CostAfter) / float64(r.CostBefore)
}

// site is one weakenable instruction, addressed by structural
// coordinates so the same site resolves in any clone of the module.
type site struct {
	fi, bi  int
	in      *ir.Instr // the instruction in the live module
	frozen  bool      // all remaining weakenings rejected; ordering final
	deleted bool      // fence removed from the module; site retired
}

// pos resolves the site's current index within its block by identity —
// committed fence deletions shift positions, so indices are never
// cached across commits.
func (s *site) pos(m *ir.Module) int {
	return indexOf(m.Funcs[s.fi].Blocks[s.bi], s.in)
}

// candidate is one (site, weaker ordering) step proposed in a round.
type candidate struct {
	siteIdx int
	ord     ir.MemOrder
	del     bool
}

// weakener carries one optimization run.
type weakener struct {
	m        *ir.Module
	opts     Options
	cost     CostModel
	base     *mc.Result
	baseRace map[string]bool
	sites    []site
	res      *Result
	// verifyMicros is the live weaken.verify_micros histogram: one
	// observation per verification as it returns.
	verifyMicros *obs.Histogram
}

// Optimize weakens m in place to a fixpoint and returns the report.
// The module must already be ported (the optimizer weakens whatever
// orderings are present; it never strengthens). Callers that need the
// original should clone first (OptimizeClone). Internal panics are
// contained and returned as errors.
func Optimize(m *ir.Module, opts Options) (*Result, error) {
	return optimize(m, opts, (*weakener).round)
}

// optimize is Optimize with the round as a parameter, so a test can run
// a reference merge through the same baseline, loop and accounting.
func optimize(m *ir.Module, opts Options, round func(*weakener, int) (bool, error)) (res *Result, err error) {
	defer diag.Guard("weaken.Optimize", &err)
	if len(opts.Entries) == 0 {
		return nil, fmt.Errorf("weaken: no entry functions (the checker needs a harness)")
	}
	opts.Model = opts.Model.Or(memmodel.ModelWMM)
	if opts.MaxExecs == 0 {
		opts.MaxExecs = defaultMaxExecs
	}
	if opts.TimeBudget == 0 {
		opts.TimeBudget = defaultTimeBudget
	}
	if opts.StressSeeds == 0 {
		opts.StressSeeds = defaultStressSeeds
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	cost, err := Arch(opts.Arch)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	w := &weakener{
		m: m, opts: opts, cost: cost,
		res:          &Result{Module: m.Name, Arch: cost.Name, Workers: workers},
		verifyMicros: opts.Obs.Histogram("weaken.verify_micros"),
	}
	if opts.Oracle != OracleExhaustive {
		w.res.Oracle = opts.Oracle.String()
	}
	w.res.CostBefore = w.scopeCost()
	w.res.CostAfter = w.res.CostBefore

	trk := opts.Obs.Track("weaken")
	os := trk.Begin("weaken.optimize").Arg("module", m.Name).
		Arg("arch", cost.Name).Arg("workers", workers)
	defer func() {
		w.res.Duration = time.Since(start)
		os.End()
		if err == nil {
			publish(opts.Obs, w.res, w.frozen())
			ev := opts.Obs.Log().Event("weaken.optimize_completed").
				Str("module", m.Name).Str("arch", cost.Name).
				Int("accepted", int64(w.res.Accepted)).
				Int("fences_deleted", int64(w.res.FencesDeleted))
			if w.res.Reason != "" {
				ev = ev.Str("reason", w.res.Reason)
			}
			ev.Emit()
		}
	}()

	// Baseline: the verdict every weakening must preserve.
	bs := trk.Begin("weaken.baseline")
	var bstress bool
	w.base, bstress, err = w.verify(m, roleBaseline)
	bs.Arg("verdict", verdictName(w.base, err)).End()
	if err != nil {
		return nil, fmt.Errorf("weaken: baseline check: %w", err)
	}
	w.note(w.base, bstress)
	w.res.Verdict = w.base.Verdict.String()
	if bstress {
		w.res.Verdict = stressVerdictName(w.base.Verdict)
	}
	switch w.base.Verdict {
	case mc.VerdictFail:
		w.res.Reason = "baseline violated: refusing to optimize a program whose specification does not hold"
		if bstress {
			w.res.Reason = "baseline violated (stress witness): refusing to optimize a program whose specification does not hold"
		}
		return w.res, nil
	case mc.VerdictUnknown:
		// Unreachable under the stress oracle: a sweep always returns a
		// witnessed verdict.
		w.res.Reason = fmt.Sprintf("baseline unknown (%s): raise the budget to establish a verdict to preserve, or screen with -O-oracle=stress", w.base.Reason)
		return w.res, nil
	}
	w.baseRace = make(map[string]bool, len(w.base.Races))
	for _, r := range w.base.Races {
		w.baseRace[r.Key()] = true
	}

	w.collectSites()
	for {
		if err := w.ctxErr(); err != nil {
			return nil, err
		}
		w.res.Rounds++
		rs := trk.Begin("weaken.round").Arg("round", w.res.Rounds)
		changed, err := round(w, workers)
		rs.Arg("changed", changed).End()
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	w.res.CostAfter = w.scopeCost()
	return w.res, nil
}

// OptimizeClone clones m, optimizes the clone, and returns it with the
// report, leaving m untouched.
func OptimizeClone(m *ir.Module, opts Options) (*ir.Module, *Result, error) {
	c, err := ir.CloneModule(m)
	if err != nil {
		return nil, nil, err
	}
	res, err := Optimize(c, opts)
	if err != nil {
		return nil, nil, err
	}
	return c, res, nil
}

// ctxErr reports the run's cancellation state.
func (w *weakener) ctxErr() error {
	if w.opts.Context == nil {
		return nil
	}
	if err := w.opts.Context.Err(); err != nil {
		return fmt.Errorf("weaken: canceled: %w", err)
	}
	return nil
}

// collectSites walks the functions reachable from the verification
// entries in deterministic order and records every instruction with a
// non-empty weakening ladder. Functions the harness cannot reach are
// skipped: the checker re-verifies only the code it executes, so a
// weakening there would never be contradicted — it would be an
// unverified rewrite wearing a verified one's provenance.
func (w *weakener) collectSites() {
	in := w.m.Reachable(w.opts.Entries)
	for fi, f := range w.m.Funcs {
		if !in[f] {
			w.res.FuncsSkipped++
			continue
		}
		w.res.FuncsInScope++
		for bi, b := range f.Blocks {
			for _, instr := range b.Instrs {
				if len(ladder(instr.Op, instr.Ord)) > 0 {
					w.sites = append(w.sites, site{fi: fi, bi: bi, in: instr})
				}
			}
		}
	}
}

// scopeCost sums the static cost over the optimization scope.
func (w *weakener) scopeCost() int64 {
	in := w.m.Reachable(w.opts.Entries)
	var total int64
	for _, f := range w.m.Funcs {
		if !in[f] {
			continue
		}
		for _, b := range f.Blocks {
			for _, instr := range b.Instrs {
				total += w.cost.InstrCost(instr)
			}
		}
	}
	return total
}

// ladder returns the orderings to try next, weakest-preferred order
// per rung, for an instruction of the given op at the given ordering.
// An empty ladder means the site is fully weakened (or not weakenable).
// ir.NotAtomic stands for deletion on fences.
func ladder(op ir.Op, ord ir.MemOrder) []ir.MemOrder {
	switch op {
	case ir.OpLoad:
		switch ord {
		case ir.SeqCst:
			return []ir.MemOrder{ir.Acquire}
		case ir.Acquire:
			return []ir.MemOrder{ir.Relaxed}
		}
	case ir.OpStore:
		switch ord {
		case ir.SeqCst:
			return []ir.MemOrder{ir.Release}
		case ir.Release:
			return []ir.MemOrder{ir.Relaxed}
		}
	case ir.OpCmpXchg, ir.OpRMW:
		switch ord {
		case ir.SeqCst:
			return []ir.MemOrder{ir.AcqRel}
		case ir.AcqRel:
			return []ir.MemOrder{ir.Acquire, ir.Release}
		case ir.Acquire, ir.Release:
			return []ir.MemOrder{ir.Relaxed}
		}
	case ir.OpFence:
		switch ord {
		case ir.SeqCst:
			return []ir.MemOrder{ir.AcqRel}
		case ir.AcqRel:
			return []ir.MemOrder{ir.Acquire, ir.Release}
		case ir.Acquire, ir.Release:
			return []ir.MemOrder{ir.NotAtomic} // deletion
		}
	}
	return nil
}

// round proposes one ladder step per active site and merges the round
// into the live module by group testing:
//
//  1. The first alternative of every site is verified as one batch. If
//     the batch is accepted it is committed whole and screening is
//     skipped.
//  2. Otherwise every candidate is screened against a private clone,
//     and merge commits the survivors, bisecting only on rejection.
//
// Weakening only adds behaviours, so acceptance is monotone and both
// steps commit exactly what merging the survivors one at a time, in
// site order, would commit (docs/WEAKENING.md). It reports whether any
// site changed. A site none of whose candidates committed is frozen:
// its ordering is final. A fully weakened site has an empty ladder and
// stops generating candidates on its own.
func (w *weakener) round(workers int) (bool, error) {
	cands := w.candidates()
	if len(cands) == 0 {
		return false, nil
	}

	trk := w.opts.Obs.Track("weaken")
	first, at := firstPerSite(cands)
	bs := trk.Begin("weaken.merge").Arg("candidates", len(first))
	ok, err := w.tryCommit(first)
	bs.Arg("accepted", ok).End()
	if err != nil || ok {
		return ok, err
	}

	pass, err := w.screen(cands, workers)
	if err != nil {
		return false, err
	}
	var survivors []candidate
	for ci, c := range cands {
		if pass[ci] {
			survivors = append(survivors, c)
		}
	}
	sameBatch := true // every first alternative survived: merge's first batch is step 1's
	for _, ci := range at {
		sameBatch = sameBatch && pass[ci]
	}
	ms := trk.Begin("weaken.merge").Arg("candidates", len(survivors))
	committed, err := w.merge(survivors, sameBatch)
	ms.Arg("committed", len(committed)).End()
	if err != nil {
		return false, err
	}
	w.freeze(cands, committed)
	return len(committed) > 0, nil
}

// candidates proposes the round's ladder steps: every alternative of
// the next rung of every active site, in site order.
func (w *weakener) candidates() []candidate {
	var cands []candidate
	for si := range w.sites {
		s := &w.sites[si]
		if s.frozen || s.deleted {
			continue
		}
		for _, ord := range ladder(s.in.Op, s.in.Ord) {
			cands = append(cands, candidate{
				siteIdx: si,
				ord:     ord,
				del:     s.in.Op == ir.OpFence && ord == ir.NotAtomic,
			})
		}
	}
	return cands
}

// freeze retires every site of the round none of whose candidates
// committed.
func (w *weakener) freeze(cands []candidate, committed map[int]bool) {
	for _, c := range cands {
		if !committed[c.siteIdx] {
			w.sites[c.siteIdx].frozen = true
		}
	}
}

// frozen counts the frozen sites.
func (w *weakener) frozen() int {
	n := 0
	for _, s := range w.sites {
		if s.frozen {
			n++
		}
	}
	return n
}

// merge commits screened survivors in site order by group testing. It
// verifies the first surviving alternative of every site as one
// cumulative batch; when the batch is rejected it bisects for the first
// candidate whose cumulative prefix fails — the first candidate a
// one-at-a-time merge would reject. The verified prefix before it is
// committed, the candidate is rejected, and merging continues after it,
// so its site's next alternative is still tried (acq_rel -> release
// after acquire fails). knownFail reports that the first batch is one
// already rejected against the live module, so its check is skipped.
// It returns the sites that committed.
func (w *weakener) merge(survivors []candidate, knownFail bool) (map[int]bool, error) {
	committed := make(map[int]bool)
	for len(survivors) > 0 {
		batch, at := firstPerSite(survivors)
		ok := false
		if !knownFail {
			var err error
			if ok, err = w.tryCommit(batch); err != nil {
				return committed, err
			}
		}
		knownFail = false
		n := len(batch) // batch[:n] is committed
		if !ok {
			// Invariant: batch[:lo] is committed; batch[:hi] fails.
			lo, hi := 0, len(batch)
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				ok, err := w.tryCommit(batch[lo:mid])
				if err != nil {
					return committed, err
				}
				if ok {
					lo = mid
				} else {
					hi = mid
				}
			}
			n = lo
		}
		for _, c := range batch[:n] {
			committed[c.siteIdx] = true
		}
		if n == len(batch) {
			break
		}
		w.tally(false) // batch[n] is blamed
		survivors = survivors[at[n]+1:]
	}
	return committed, nil
}

// firstPerSite picks the first candidate of every site (candidates are
// grouped by site, alternatives in ladder order) and their indices.
func firstPerSite(cands []candidate) ([]candidate, []int) {
	var batch []candidate
	var at []int
	for i, c := range cands {
		if i == 0 || cands[i-1].siteIdx != c.siteIdx {
			batch = append(batch, c)
			at = append(at, i)
		}
	}
	return batch, at
}

// screenOutcome is one candidate's screening verdict plus the check
// that decided it, carried back to the sequential aggregation step.
type screenOutcome struct {
	pass     bool
	stressed bool // a stress sweep screened it (accounting bucket)
	res      *mc.Result
}

// screen checks every candidate of a round independently against a
// private clone of the current module, fanning out through
// fanout.Each. Workers write only their own slot of the outcome slice;
// the shared Result tallies (Tried/Accepted/Rejected, MCChecks/...) are
// applied sequentially after the fan-out, in candidate order, so both
// the verdicts and the published counts are deterministic regardless
// of worker count or completion order.
func (w *weakener) screen(cands []candidate, workers int) ([]bool, error) {
	outs := make([]screenOutcome, len(cands))
	trks := make([]*obs.Track, min(workers, len(cands)))
	for wi := range trks {
		trks[wi] = w.opts.Obs.Track(fmt.Sprintf("weaken.worker-%02d", wi))
	}
	err := fanout.Each(workers, len(cands), func(wi, i int) error {
		if err := w.ctxErr(); err != nil {
			return err
		}
		c := cands[i]
		s := &w.sites[c.siteIdx]
		cs := trks[wi].Begin("weaken.candidate").
			Arg("site", race.SiteString(s.in)).Arg("to", ordName(c))
		var err error
		outs[i], err = w.screenOne(c)
		cs.Arg("pass", outs[i].pass).End()
		return err
	})
	if err == nil {
		// A cancel that lands after the last claim still voids the
		// round: its late screens may have been cut short.
		err = w.ctxErr()
	}
	if err != nil {
		return nil, err
	}
	pass := make([]bool, len(cands))
	for i, o := range outs {
		pass[i] = o.pass
		w.note(o.res, o.stressed)
		if !o.pass {
			w.tally(false)
		}
	}
	return pass, nil
}

// screenOne clones the current module, applies one candidate to the
// clone, and re-verifies it. It is side-effect free on the weakener —
// it runs concurrently with other screenings, reading the live module
// and baseline only — and returns the verdict plus the checker work
// for the caller to account sequentially.
func (w *weakener) screenOne(c candidate) (screenOutcome, error) {
	s := &w.sites[c.siteIdx]
	// Resolve the site's position in the live module by identity, then
	// map it positionally into the clone (clones mirror block layout).
	pos := s.pos(w.m)
	if pos < 0 {
		return screenOutcome{}, fmt.Errorf("weaken: site %s vanished from its block", race.SiteString(s.in))
	}
	clone, err := ir.CloneModule(w.m)
	if err != nil {
		return screenOutcome{}, err
	}
	blk := clone.Funcs[s.fi].Blocks[s.bi]
	if c.del {
		deleteInstr(blk, pos)
	} else {
		blk.Instrs[pos].Ord = c.ord
	}
	res, stressed, err := w.verify(clone, roleScreen)
	if err != nil {
		return screenOutcome{}, err
	}
	return screenOutcome{pass: w.acceptFor(res, stressed), stressed: stressed, res: res}, nil
}

// applied is one candidate applied to the live module but not yet
// committed, with what reverting and recording it need.
type applied struct {
	c    candidate
	prev ir.MemOrder // the ordering before the step
	pos  int         // a deleted fence's index in its block
	site string      // race.SiteString before the step
}

// tryCommit applies batch to the live module in order and verifies the
// result once. On acceptance every candidate is committed; on rejection,
// cancellation or a hard checker error the batch is reverted, so the
// module is always left in a verified state. Coordinates stay valid
// because ordering changes do not move instructions and deletions
// resolve positions by identity at apply time.
func (w *weakener) tryCommit(batch []candidate) (bool, error) {
	if err := w.ctxErr(); err != nil {
		return false, err
	}
	done := make([]applied, 0, len(batch))
	revert := func() {
		for i := len(done) - 1; i >= 0; i-- {
			a := done[i]
			s := &w.sites[a.c.siteIdx]
			if a.c.del {
				insertInstr(w.m.Funcs[s.fi].Blocks[s.bi], a.pos, s.in)
			} else {
				s.in.Ord = a.prev
			}
		}
	}
	for _, c := range batch {
		s := &w.sites[c.siteIdx]
		a := applied{c: c, prev: s.in.Ord, site: race.SiteString(s.in)}
		if c.del {
			if a.pos = s.pos(w.m); a.pos < 0 {
				revert()
				return false, fmt.Errorf("weaken: site %s vanished from its block", a.site)
			}
			deleteInstr(w.m.Funcs[s.fi].Blocks[s.bi], a.pos)
		} else {
			s.in.Ord = c.ord
		}
		done = append(done, a)
	}
	res, stressed, err := w.verify(w.m, roleMerge)
	if err == nil {
		// A canceled check is no verdict: a stress sweep cut short
		// reports only what it ran, so it must not commit anything.
		err = w.ctxErr()
	}
	if err != nil {
		revert()
		return false, err
	}
	w.note(res, stressed)
	if !w.acceptFor(res, stressed) {
		revert()
		return false, nil
	}
	for _, a := range done {
		w.record(a)
	}
	return true, nil
}

// record commits one verified step: its decision with provenance, the
// site's state, and the run's tallies.
func (w *weakener) record(a applied) {
	s := &w.sites[a.c.siteIdx]
	d := Decision{
		Fn:    w.m.Funcs[s.fi].Name,
		Site:  a.site,
		Kind:  kindName(s.in.Op),
		From:  a.prev.String(),
		To:    a.c.ord.String(),
		Round: w.res.Rounds,
	}
	if s.in.IsMemAccess() {
		if loc := alias.LocOf(s.in.Addr()); loc.Shared() {
			d.Loc = loc.String()
		}
	}
	if a.c.del {
		d.To = "deleted"
		d.Deleted = true
		d.CostDelta = w.cost.fenceCost(a.prev)
		s.deleted = true
		w.res.FencesDeleted++
	} else {
		before := *s.in
		before.Ord = a.prev
		d.CostDelta = w.cost.InstrCost(&before) - w.cost.InstrCost(s.in)
		s.in.SetMark(ir.MarkWeakened)
	}
	w.res.Decisions = append(w.res.Decisions, d)
	w.res.CostAfter -= d.CostDelta
	w.tally(true)
}

// accepted applies the acceptance rule to one candidate verification:
// same verdict as the baseline, no new race report keys, and unknown
// never accepts. It only reads state fixed at baseline time, so
// screening workers may call it concurrently; the bookkeeping lives in
// tally.
func (w *weakener) accepted(res *mc.Result) bool {
	ok := res.Verdict == w.base.Verdict && res.Verdict != mc.VerdictUnknown
	if ok {
		for _, r := range res.Races {
			if !w.baseRace[r.Key()] {
				ok = false
				break
			}
		}
	}
	return ok
}

// tally counts one candidate's outcome: committed, or rejected by a
// screen or by bisection. Sequential only: it writes plain Result
// fields, so screening aggregates after its fan-out returns rather
// than calling it from workers.
func (w *weakener) tally(ok bool) {
	w.res.Tried++
	if ok {
		w.res.Accepted++
	} else {
		w.res.Rejected++
	}
}

// checkOptions returns the checker options of one re-verification in
// the given role, with the run's early-stop rule: against a verified
// baseline, any violation, race or unknown verdict rejects a candidate,
// so a candidate check (screen or merge) stops at the first violation
// or race — the decision full exploration would reach, without the
// rest of the state space. The baseline check always explores in full,
// and so does every candidate check of a racy baseline: its race-key
// comparison needs every race the candidate can reach.
func (w *weakener) checkOptions(role checkRole) mc.Options {
	return mc.Options{
		Model:           w.opts.Model,
		Entries:         w.opts.Entries,
		MaxExecutions:   w.opts.MaxExecs,
		MaxStepsPerExec: w.opts.MaxStepsPerExec,
		TimeBudget:      w.opts.TimeBudget,
		Context:         w.opts.Context,
		DetectRaces:     w.opts.DetectRaces,
		StopAtFirst:     role != roleBaseline && w.base.Verdict == mc.VerdictPass,
	}
}

// note accounts one completed check's work into the report, in the
// bucket of the engine that ran it and at the engine's own elapsed
// time. Sequential only, for the same reason as tally.
func (w *weakener) note(res *mc.Result, stressed bool) {
	if stressed {
		w.res.StressChecks++
		w.res.StressSchedules += res.Executions
		w.res.StressTime += res.Elapsed
		return
	}
	w.res.MCChecks++
	w.res.MCExecutions += res.Executions
	w.res.MCTime += res.Elapsed
}

// deleteInstr removes the instruction at pos from the block.
func deleteInstr(b *ir.Block, pos int) {
	b.Instrs = append(b.Instrs[:pos], b.Instrs[pos+1:]...)
}

// insertInstr splices in back at pos (deletion revert).
func insertInstr(b *ir.Block, pos int, in *ir.Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[pos+1:], b.Instrs[pos:])
	b.Instrs[pos] = in
}

// indexOf locates in within its block.
func indexOf(b *ir.Block, in *ir.Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

func kindName(op ir.Op) string {
	switch op {
	case ir.OpLoad:
		return "load"
	case ir.OpStore:
		return "store"
	case ir.OpRMW:
		return "rmw"
	case ir.OpCmpXchg:
		return "cmpxchg"
	case ir.OpFence:
		return "fence"
	}
	return op.String()
}

func ordName(c candidate) string {
	if c.del {
		return "deleted"
	}
	return c.ord.String()
}

func verdictName(res *mc.Result, err error) string {
	if err != nil || res == nil {
		return "error"
	}
	return res.Verdict.String()
}
