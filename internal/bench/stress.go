package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/stress"
	"repro/internal/weaken"
)

// The stress experiment (EXPERIMENTS.md, docs/STRESS.md) measures the
// three claims the schedule-fuzzing mode makes:
//
//  1. Throughput: a ported 100k+-line generated module sweeps at
//     thousands of seeded schedules per second, the planted race is
//     found, and the finding auto-minimizes into a litmus-sized program
//     the model checker confirms exhaustively.
//  2. Sampling: the detector's location-sampling fraction trades
//     detection rate for overhead along a measurable curve — false
//     negatives only, never false positives.
//  3. Oracle: weakening with the stress screening oracle produces the
//     same final module as the exhaustive oracle at a fraction of the
//     checker work, and the pure-stress oracle weakens programs whose
//     exhaustive baseline is out of budget.

// StressThroughputRow is one worker count's sweep over the large
// planted-defect module.
type StressThroughputRow struct {
	Workers      int     `json:"workers"`
	Schedules    int     `json:"schedules"`
	Steps        int64   `json:"steps"`
	RatePerSec   float64 `json:"rate_per_sec"`
	StepLimited  int     `json:"step_limited"`
	FoundPlanted bool    `json:"found_planted"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// StressMinimizeSummary is the finding's minimize-and-confirm run: the
// large module shrunk around the planted race, then checked
// exhaustively.
type StressMinimizeSummary struct {
	OrigFuncs      int     `json:"orig_funcs"`
	Funcs          int     `json:"funcs"`
	OrigInstrs     int     `json:"orig_instrs"`
	Instrs         int     `json:"instrs"`
	Reductions     int     `json:"reductions"`
	OracleChecks   int     `json:"oracle_checks"`
	Schedule       string  `json:"schedule"`
	ConfirmVerdict string  `json:"confirm_verdict"`
	ConfirmExecs   int     `json:"confirm_execs"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

// StressSampleRow is the detection rate at one sampling fraction:
// the share of independent single-seed sweeps (one schedule per
// scheduler mode, distinct BaseSeed each) that report the planted
// race, and the share of accesses the detector actually observed.
type StressSampleRow struct {
	Sample       float64 `json:"sample"`
	Sweeps       int     `json:"sweeps"`
	Detected     int     `json:"detected"`
	DetectRate   float64 `json:"detect_rate"`
	ForwardedPct float64 `json:"forwarded_pct"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// StressOracleRow is one (program, oracle) weakening run.
type StressOracleRow struct {
	Program         string  `json:"program"`
	Oracle          string  `json:"oracle"`
	Verdict         string  `json:"verdict"`
	Refused         string  `json:"refused,omitempty"`
	CostBefore      int64   `json:"cost_before"`
	CostAfter       int64   `json:"cost_after"`
	ReductionPct    float64 `json:"reduction_pct"`
	MCChecks        int     `json:"mc_checks"`
	StressChecks    int     `json:"stress_checks,omitempty"`
	StressSchedules int     `json:"stress_schedules,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// StressBench bundles the full experiment for the JSON envelope.
type StressBench struct {
	SLOC        int                    `json:"sloc"`
	Funcs       int                    `json:"funcs"`
	Throughput  []StressThroughputRow  `json:"throughput"`
	Minimize    *StressMinimizeSummary `json:"minimize,omitempty"`
	MinimizeErr string                 `json:"minimize_err,omitempty"`
	Sampling    []StressSampleRow      `json:"sampling"`
	Oracle      []StressOracleRow      `json:"oracle"`
}

// DefaultStressSLOC sizes the throughput module (the paper-scale
// "100k+ lines" claim).
const DefaultStressSLOC = 100_000

// stressGapLoc is the planted race's location (appgen.ModuleSpec
// PlantRace).
var stressGapLoc = alias.Loc{Kind: alias.LocGlobal, Name: "lg_gap_data"}

// stressModule generates, compiles and ports the planted-defect module.
func stressModule(sloc int, seed int64) (*ir.Module, []string, int, error) {
	spec := appgen.LargeSpec("stress-large", sloc, seed)
	spec.PlantRace = true
	spec.HarnessThreads = 3
	src, _ := appgen.GenerateLarge(spec)
	res, err := minic.Compile(spec.Name+".c", src)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bench: compile stress module: %w", err)
	}
	if _, err := atomig.Port(res.Module, atomig.DefaultOptions()); err != nil {
		return nil, nil, 0, fmt.Errorf("bench: port stress module: %w", err)
	}
	lines := strings.Count(src, "\n")
	return res.Module, spec.HarnessEntries(), lines, nil
}

// foundPlanted reports whether the sweep detected the planted race.
func foundPlanted(res *stress.Result) bool {
	for _, r := range res.Races() {
		if r.Loc == stressGapLoc {
			return true
		}
	}
	return false
}

// StressThroughput sweeps the large module at each worker count
// (seeds schedules per scheduler mode each), then minimizes the
// planted-race finding and confirms it exhaustively. workerCounts nil
// selects {1, 2, 4, 8} capped to the pinned procs; seeds 0 selects 64;
// sloc 0 selects DefaultStressSLOC.
func StressThroughput(sloc int, seed int64, workerCounts []int, seeds int, prov *obs.Provider) (*StressBench, error) {
	if sloc <= 0 {
		sloc = DefaultStressSLOC
	}
	if seeds <= 0 {
		seeds = 64
	}
	if workerCounts == nil {
		procs := SweepProcs(nil)
		for _, w := range []int{1, 2, 4, 8} {
			if w <= procs {
				workerCounts = append(workerCounts, w)
			}
		}
		if len(workerCounts) == 0 {
			workerCounts = []int{1}
		}
	}
	m, entries, lines, err := stressModule(sloc, seed)
	if err != nil {
		return nil, err
	}
	out := &StressBench{SLOC: lines, Funcs: len(m.Funcs)}

	var gapFinding *stress.Finding
	for _, w := range workerCounts {
		start := time.Now()
		res, err := stress.Sweep(m, stress.Options{
			Entries: entries, Seeds: seeds, Workers: w, Obs: prov,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: stress sweep (j=%d): %w", w, err)
		}
		el := time.Since(start)
		out.Throughput = append(out.Throughput, StressThroughputRow{
			Workers:      w,
			Schedules:    res.Schedules,
			Steps:        res.Steps,
			RatePerSec:   float64(res.Schedules) / el.Seconds(),
			StepLimited:  res.StepLimited,
			FoundPlanted: foundPlanted(res),
			ElapsedMS:    float64(el) / float64(time.Millisecond),
		})
		if gapFinding == nil {
			for i := range res.Findings {
				f := res.Findings[i]
				if f.Kind == stress.FindingRace && f.Report.Loc == stressGapLoc {
					gapFinding = &f
					break
				}
			}
		}
	}
	if gapFinding == nil {
		out.MinimizeErr = "planted race not found; nothing to minimize"
		return out, nil
	}

	start := time.Now()
	mres, err := stress.Minimize(m, stress.MinimizeOptions{
		Entries: entries, Target: gapFinding.Report,
		Workers: SweepProcs(nil), Obs: prov,
	})
	if err != nil {
		out.MinimizeErr = err.Error()
		return out, nil
	}
	out.Minimize = &StressMinimizeSummary{
		OrigFuncs: mres.OrigFuncs, Funcs: mres.Funcs,
		OrigInstrs: mres.OrigInstrs, Instrs: mres.Instrs,
		Reductions: mres.Reductions, OracleChecks: mres.Checks,
		Schedule:       mres.Schedule.String(),
		ConfirmVerdict: mres.Confirm.Verdict.String(),
		ConfirmExecs:   mres.Confirm.Executions,
		ElapsedMS:      float64(time.Since(start)) / float64(time.Millisecond),
	}
	return out, nil
}

// DefaultStressSamples is the sampling-fraction grid.
func DefaultStressSamples() []float64 { return []float64{1, 0.5, 0.25, 0.1} }

// StressSampling measures detection rate vs sampling fraction: for
// each fraction it runs sweeps independent single-seed sweeps (one
// schedule per scheduler mode, BaseSeed 1..sweeps) over a mid-sized
// planted-defect module and counts the sweeps that report the planted
// race. Single-seed sweeps keep the per-sweep detection probability
// well below 1, so the curve is visible; a production sweep's
// aggregate coverage is far higher because each schedule draws a fresh
// location subset (sampler.go). samples nil selects the default grid;
// sweeps 0 selects 24.
func StressSampling(samples []float64, sweeps int, seed int64, prov *obs.Provider) ([]StressSampleRow, error) {
	if samples == nil {
		samples = DefaultStressSamples()
	}
	if sweeps <= 0 {
		sweeps = 24
	}
	m, entries, _, err := stressModule(4000, seed)
	if err != nil {
		return nil, err
	}
	workers := SweepProcs(nil)
	var rows []StressSampleRow
	for _, f := range samples {
		start := time.Now()
		detected := 0
		var fwd, skip int64
		for s := 1; s <= sweeps; s++ {
			res, err := stress.Sweep(m, stress.Options{
				Entries: entries, Seeds: 1, BaseSeed: int64(s),
				Sample: f, Workers: workers, Obs: prov,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: sampling sweep (f=%g, base=%d): %w", f, s, err)
			}
			if foundPlanted(res) {
				detected++
			}
			fwd += res.Forwarded
			skip += res.Skipped
		}
		row := StressSampleRow{
			Sample: f, Sweeps: sweeps, Detected: detected,
			DetectRate: float64(detected) / float64(sweeps),
			ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
		}
		if fwd+skip > 0 {
			row.ForwardedPct = 100 * float64(fwd) / float64(fwd+skip)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// StressOracle demonstrates the pure-stress oracle on ck_spinlock_cas,
// whose exhaustive baseline refuses on budget: one row records the
// exhaustive refusal, the other the stress oracle weakening the same
// program end to end. That the default oracle's stress screens leave
// the weakened module unchanged is TestGroupMergeMatchesReference's
// claim, not a bench row's. workers 0 selects 4.
func StressOracle(workers int, prov *obs.Provider) ([]StressOracleRow, error) {
	if workers <= 0 {
		workers = 4
	}
	tgt := corpusTarget("ck_spinlock_cas", false)
	orig, entries, err := tgt.compile()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", tgt.Name, err)
	}
	ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: port %s: %w", tgt.Name, err)
	}
	var rows []StressOracleRow
	// The exhaustive refusal runs at a reduced budget (the default 30s
	// budget refuses identically — BENCH_weaken.json).
	for _, oracle := range []weaken.OracleMode{weaken.OracleExhaustive, weaken.OracleStress} {
		opts := weaken.DefaultOptions(entries)
		opts.DetectRaces = tgt.DetectRaces
		opts.Workers = workers
		opts.Oracle = oracle
		opts.Obs = prov
		if oracle == weaken.OracleExhaustive {
			opts.TimeBudget = 5 * time.Second
		}
		start := time.Now()
		_, res, err := weaken.OptimizeClone(ported, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: weaken %s (%s): %w", tgt.Name, oracle, err)
		}
		rows = append(rows, StressOracleRow{
			Program: tgt.Name, Oracle: oracle.String(),
			Verdict: res.Verdict, Refused: res.Reason,
			CostBefore: res.CostBefore, CostAfter: res.CostAfter,
			ReductionPct: res.Reduction(),
			MCChecks:     res.MCChecks,
			StressChecks: res.StressChecks, StressSchedules: res.StressSchedules,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
	return rows, nil
}

// StressExperiment runs all three sections with the default knobs.
func StressExperiment(sloc int, seed int64, prov *obs.Provider) (*StressBench, error) {
	b, err := StressThroughput(sloc, seed, nil, 0, prov)
	if err != nil {
		return nil, err
	}
	if b.Sampling, err = StressSampling(nil, 0, seed, prov); err != nil {
		return nil, err
	}
	if b.Oracle, err = StressOracle(0, prov); err != nil {
		return nil, err
	}
	return b, nil
}

// FormatStress renders the experiment.
func FormatStress(b *StressBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Schedule-fuzzing stress mode (module: %d lines, %d funcs)\n", b.SLOC, b.Funcs)
	sb.WriteString("Throughput (seeded schedules over the ported planted-defect module)\n")
	fmt.Fprintf(&sb, "%8s %10s %12s %10s %8s %8s %10s\n",
		"workers", "schedules", "steps", "rate/s", "limited", "planted", "elapsed")
	for _, r := range b.Throughput {
		fmt.Fprintf(&sb, "%8d %10d %12d %10.0f %8d %8t %9.0fms\n",
			r.Workers, r.Schedules, r.Steps, r.RatePerSec, r.StepLimited, r.FoundPlanted, r.ElapsedMS)
	}
	if b.Minimize != nil {
		m := b.Minimize
		fmt.Fprintf(&sb, "minimized: %d/%d funcs, %d/%d instrs (%d reductions, %d oracle checks) under %s\n",
			m.Funcs, m.OrigFuncs, m.Instrs, m.OrigInstrs, m.Reductions, m.OracleChecks, m.Schedule)
		fmt.Fprintf(&sb, "confirmed: verdict=%s executions=%d (%.0fms total)\n",
			m.ConfirmVerdict, m.ConfirmExecs, m.ElapsedMS)
	} else if b.MinimizeErr != "" {
		fmt.Fprintf(&sb, "minimize: %s\n", b.MinimizeErr)
	}
	if len(b.Sampling) > 0 {
		sb.WriteString("\nDetection rate vs sampling fraction (single-seed sweeps, planted race)\n")
		fmt.Fprintf(&sb, "%8s %8s %10s %8s %10s %10s\n",
			"sample", "sweeps", "detected", "rate", "observed", "elapsed")
		for _, r := range b.Sampling {
			fmt.Fprintf(&sb, "%8.2f %8d %10d %7.0f%% %9.1f%% %9.0fms\n",
				r.Sample, r.Sweeps, r.Detected, 100*r.DetectRate, r.ForwardedPct, r.ElapsedMS)
		}
	}
	if len(b.Oracle) > 0 {
		sb.WriteString("\nWeakening oracle: pure stress where the exhaustive baseline refuses (docs/STRESS.md)\n")
		fmt.Fprintf(&sb, "%-20s %-10s %-13s %9s %9s %8s %6s %8s %10s\n",
			"program", "oracle", "verdict", "before", "after", "reduct", "mc", "stress", "elapsed")
		for _, r := range b.Oracle {
			if r.Refused != "" {
				fmt.Fprintf(&sb, "%-20s %-10s refused: %s\n", r.Program, r.Oracle, r.Refused)
				continue
			}
			fmt.Fprintf(&sb, "%-20s %-10s %-13s %9d %9d %7.1f%% %6d %8d %9.0fms\n",
				r.Program, r.Oracle, r.Verdict, r.CostBefore, r.CostAfter,
				r.ReductionPct, r.MCChecks, r.StressChecks, r.ElapsedMS)
		}
	}
	return sb.String()
}

// GenerateStressSource emits the stress-smoke module's MiniC source:
// the LargeSpec site mix plus the three-thread stress harness
// (entries lg_stress_t0..t2), optionally with the planted seqlock-gap
// defect. The out-of-process seam for `make stress-smoke`.
func GenerateStressSource(sloc int, seed int64, plantRace bool) string {
	spec := appgen.LargeSpec("stress-smoke", sloc, seed)
	spec.PlantRace = plantRace
	spec.HarnessThreads = 3
	src, _ := appgen.GenerateLarge(spec)
	return src
}
