// The oracle seam: which engine vouches for a candidate weakening.
//
// Every acceptance decision in this package flows through exactly one
// verification call (verify), and OracleMode selects what answers it:
//
//   - OracleExhaustive (the default) keeps the baseline and every merge
//     check on the bounded-exhaustive model checker — a proof within the
//     budget. Only candidate screening picks its engine, once per run,
//     from the baseline check: the checker when the baseline explored at
//     most stressScreenAbove executions, a seeded stress sweep (a
//     witness, not a proof) above that. Screening acceptance under a
//     sweep is regression-only (acceptStress): a candidate is dropped
//     only when the sweep witnesses an assertion violation, a race key
//     outside the baseline set, or a fresh livelock — all regressions
//     the checker screen would also reject, since every stress schedule
//     is a real execution inside the checker's search space. A stress
//     screen therefore passes a superset of what a checker screen
//     passes, and the strict exhaustive merge check remains the gate for
//     every commit: the weakened module is the same whichever engine
//     screened (TestGroupMergeMatchesReference pins this against a
//     reference that screens on the checker).
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

	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/stress"
)

// OracleMode selects the verification oracle behind every candidate
// check.
type OracleMode int

const (
	// OracleExhaustive proves every commit with the bounded-exhaustive
	// checker (the default).
	OracleExhaustive OracleMode = iota
	// OracleStress runs every check on the stress engine; for programs
	// beyond exhaustive reach.
	OracleStress
)

// stressScreenAbove is the baseline size, in checker executions, above
// which the default oracle screens candidates with a stress sweep
// instead of the checker. A screen sweep runs a fixed 160 schedules
// (defaultStressSeeds per scheduler mode). The constant dates from when
// one schedule cost about six checker executions of the same program,
// which put the crossover near 1,000; one now costs about three, and
// the crossover, measured as a run's total screening time on the
// corpus (one worker, GOMAXPROCS=1, 2-vCPU host), lies between
// ck_spinlock_ticket's 443 baseline executions (checker screens 7.1
// against 13.8 ms) and ck_stack's 603 (60.0 against 48.9 ms), and
// stress screens win from there to cna-lock's 3,587 (756.5 against
// 140.1 ms). So
// ck_stack and seqlock (757) screen on the slower engine until the
// rule is re-decided (docs/STRESS.md, "The weakening oracle").
const stressScreenAbove = 1000

// AllOracleModes lists the modes in parse order.
func AllOracleModes() []OracleMode {
	return []OracleMode{OracleExhaustive, OracleStress}
}

func (o OracleMode) String() string {
	switch o {
	case OracleExhaustive:
		return "exhaustive"
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
	return 0, fmt.Errorf("weaken: unknown oracle %q (want exhaustive or stress)", s)
}

// checkRole distinguishes the three verification points of a run — the
// oracle dispatch is role-aware (the default oracle may swap only the
// screen).
type checkRole int

const (
	roleBaseline checkRole = iota
	roleScreen
	roleMerge
)

// stressed reports whether a check in the given role runs on the
// stress engine: every check under OracleStress; under the default
// oracle only candidate screens, and only when the baseline check
// explored more than stressScreenAbove executions.
func (w *weakener) stressed(role checkRole) bool {
	if w.opts.Oracle == OracleStress {
		return true
	}
	return role == roleScreen && w.base.Executions > stressScreenAbove
}

// verify runs one re-verification on the engine the run and role
// select. The stressed return tells the caller which accounting bucket
// (note) and acceptance rule (acceptFor) apply to the result. A checker
// check runs at one worker, which keeps it deterministic; parallelism
// lives at the candidate level. verify mutates nothing on the weakener
// beyond the (atomic) latency histogram, so screening workers may call
// it concurrently.
func (w *weakener) verify(m *ir.Module, role checkRole) (res *mc.Result, stressed bool, err error) {
	stressed = w.stressed(role)
	if stressed {
		res, err = w.stressCheck(m, role)
	} else {
		res, err = mc.Check(m, w.checkOptions(role))
	}
	if err != nil {
		return nil, stressed, err
	}
	w.verifyMicros.Observe(res.Elapsed.Microseconds())
	return res, stressed, nil
}

// stressCheck sweeps m's schedule grid and folds the outcome into the
// checker's result shape: schedules become executions, step-limited
// schedules become truncations, and the verdict is the witnessed one —
// VerdictPass here means "nothing witnessed", never "proved".
//
// A screen runs on one worker (the candidate fan-out is the parallel
// axis). The default oracle's screen has a fixed budget:
// defaultStressSeeds schedules per scheduler mode with every location
// observed. OracleStress screens on its configured budget, and its
// sequential baseline and merge checks get the full fan-out and a four
// times heavier confirm budget.
func (w *weakener) stressCheck(m *ir.Module, role checkRole) (*mc.Result, error) {
	seeds, sample, workers := defaultStressSeeds, 1.0, 1
	if w.opts.Oracle == OracleStress {
		seeds, sample = w.opts.StressSeeds, w.opts.StressSample
		if role != roleScreen {
			seeds, workers = 4*seeds, w.res.Workers
		}
	}
	sres, err := stress.Sweep(m, stress.Options{
		Model:    w.opts.Model,
		Entries:  w.opts.Entries,
		Seeds:    seeds,
		Sample:   sample,
		Workers:  workers,
		MaxSteps: w.opts.MaxStepsPerExec,
		Context:  w.opts.Context,
		Obs:      w.opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	out := &mc.Result{
		Executions: sres.Schedules,
		Truncated:  sres.StepLimited,
		Violations: sres.Violations(),
		Elapsed:    sres.Elapsed,
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
	return out, nil
}

// acceptFor routes one verification result to the acceptance rule its
// engine warrants.
func (w *weakener) acceptFor(res *mc.Result, stressed bool) bool {
	if stressed {
		return w.acceptStress(res)
	}
	return w.accepted(res)
}

// acceptStress is the regression-only acceptance rule for stress
// results. A sweep that merely fails to re-find a baseline race must
// not reject a candidate — a stress screen would then diverge from
// what a checker screen accepts — so rejection requires a *witnessed*
// regression: an assertion violation or deadlock, a race key outside
// the baseline set, or a step-limited schedule when the baseline had
// none (a weakening that introduced a livelock).
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
