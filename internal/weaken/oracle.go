// The oracle seam: which engine vouches for a candidate weakening.
//
// Every acceptance decision in this package flows through exactly one
// verification call, and OracleMode selects what answers it. The
// default is the bounded-exhaustive model checker — a proof within the
// budget. The stress engine (internal/stress) is the cheap alternative:
// a seeded schedule sweep whose verdict is a *witness*, not a proof.
// The two compose:
//
//   - OracleScreened keeps the baseline and the merge exhaustive and
//     uses stress only to screen round candidates. Screening acceptance
//     is regression-only (acceptStress): a candidate is dropped only
//     when the sweep witnesses an assertion violation, a race key
//     outside the baseline set, or a fresh livelock — all regressions
//     the exhaustive screen would also reject, since every stress
//     schedule is a real execution inside the checker's search space.
//     Stress-screening therefore passes a superset of what exhaustive
//     screening passes, and the strict exhaustive merge check remains
//     the gate for every commit: the weakened module is the same as
//     under OracleExhaustive (TestOracleEquivalence pins this on the
//     litmus corpus), at a fraction of the checker time.
//   - OracleStress runs baseline, screening and merge all on the
//     stress engine, for programs beyond exhaustive reach — where
//     mc.Check returns `unknown` and the exhaustive optimizer refuses.
//     Acceptance is regression-only throughout, and the result's
//     verdict is reported as "stress-clean"/"stress-racy" to keep the
//     weaker guarantee visible: no regression was witnessed under the
//     configured schedule budget.
//
// docs/STRESS.md#the-weakening-oracle is the full soundness argument.
package weaken

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/stress"
)

// OracleMode selects the verification oracle behind every candidate
// check.
type OracleMode int

const (
	// OracleExhaustive re-verifies every candidate with the
	// bounded-exhaustive checker (the default).
	OracleExhaustive OracleMode = iota
	// OracleScreened stress-screens candidates and exhaustively
	// verifies only the survivors; same output as OracleExhaustive.
	OracleScreened
	// OracleStress runs every check on the stress engine; for programs
	// beyond exhaustive reach.
	OracleStress
)

// AllOracleModes lists the modes in parse order.
func AllOracleModes() []OracleMode {
	return []OracleMode{OracleExhaustive, OracleScreened, OracleStress}
}

func (o OracleMode) String() string {
	switch o {
	case OracleExhaustive:
		return "exhaustive"
	case OracleScreened:
		return "screened"
	case OracleStress:
		return "stress"
	}
	return fmt.Sprintf("OracleMode(%d)", int(o))
}

// ParseOracleMode maps a CLI spelling to its mode.
func ParseOracleMode(s string) (OracleMode, error) {
	for _, m := range AllOracleModes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("weaken: unknown oracle %q (want exhaustive, screened or stress)", s)
}

// checkRole distinguishes the three verification points of a run — the
// oracle dispatch is role-aware (OracleScreened swaps only the screen).
type checkRole int

const (
	roleBaseline checkRole = iota
	roleScreen
	roleMerge
)

// verify runs one re-verification through the oracle the run and role
// select. The stressed return tells the caller which accounting bucket
// (note vs noteStress) and acceptance rule (accepted vs acceptStress)
// apply to the result.
func (w *weakener) verify(m *ir.Module, role checkRole) (res *mc.Result, el time.Duration, stressed bool, err error) {
	switch w.opts.Oracle {
	case OracleScreened:
		if role != roleScreen {
			break // baseline and merge stay exhaustive
		}
		res, el, err = w.stressCheck(m, w.opts.StressSeeds, 1)
		return res, el, true, err
	case OracleStress:
		// Screening runs single-threaded (the candidate pool is the
		// parallel axis); the sequential baseline and merge checks get
		// the full fan-out and the heavier confirm budget.
		seeds, workers := w.opts.StressSeeds, 1
		if role != roleScreen {
			seeds, workers = w.opts.StressConfirmSeeds, w.res.Workers
		}
		res, el, err = w.stressCheck(m, seeds, workers)
		return res, el, true, err
	}
	res, el, err = w.check(m, role)
	return res, el, false, err
}

// stressCheck sweeps m's schedule grid and folds the outcome into the
// checker's result shape: schedules become executions, step-limited
// schedules become truncations, and the verdict is the witnessed one —
// VerdictPass here means "nothing witnessed", never "proved".
func (w *weakener) stressCheck(m *ir.Module, seeds, workers int) (*mc.Result, time.Duration, error) {
	t0 := time.Now()
	sres, err := stress.Sweep(m, stress.Options{
		Model:    w.opts.Model,
		Entries:  w.opts.Entries,
		Seeds:    seeds,
		Sample:   w.opts.StressSample,
		Workers:  workers,
		MaxSteps: w.opts.MaxStepsPerExec,
		Context:  w.opts.Context,
		Obs:      w.opts.Obs,
	})
	if err != nil {
		return nil, 0, err
	}
	out := &mc.Result{
		Executions: sres.Schedules,
		Truncated:  sres.StepLimited,
		Violations: sres.Violations(),
	}
	if w.opts.DetectRaces {
		out.Races = sres.Races()
	}
	switch {
	case len(out.Violations) > 0:
		out.Verdict = mc.VerdictFail
	case len(out.Races) > 0:
		out.Verdict = mc.VerdictRace
	default:
		out.Verdict = mc.VerdictPass
	}
	el := time.Since(t0)
	w.c.verifyMicros.Observe(el.Microseconds())
	return out, el, nil
}

// acceptFor routes one verification result to the acceptance rule its
// oracle warrants.
func (w *weakener) acceptFor(res *mc.Result, stressed bool) bool {
	if stressed {
		return w.acceptStress(res)
	}
	return w.accepted(res)
}

// acceptStress is the regression-only acceptance rule for stress
// results. A sweep that merely fails to re-find a baseline race must
// not reject a candidate — under OracleScreened that would diverge
// from what the exhaustive screen accepts — so rejection requires a
// *witnessed* regression: an assertion violation or deadlock, a race
// key outside the baseline set, or a step-limited schedule when the
// baseline had none (a weakening that introduced a livelock).
func (w *weakener) acceptStress(res *mc.Result) bool {
	if res.Verdict == mc.VerdictFail {
		return false
	}
	for _, r := range res.Races {
		if !w.baseRace[r.Key()] {
			return false
		}
	}
	if res.Truncated > 0 && w.base.Truncated == 0 {
		return false
	}
	return true
}

// noteStress accounts one completed stress-oracle check into the
// report. Sequential only, like note.
func (w *weakener) noteStress(schedules int, el time.Duration) {
	w.res.StressChecks++
	w.res.StressSchedules += schedules
	w.res.StressTime += el
}

// stressVerdictName renders a stress-oracle baseline verdict with the
// weaker guarantee visible in the name.
func stressVerdictName(v mc.Verdict) string {
	switch v {
	case mc.VerdictPass:
		return "stress-clean"
	case mc.VerdictRace:
		return "stress-racy"
	case mc.VerdictFail:
		return "stress-violated"
	}
	return "stress-" + v.String()
}
