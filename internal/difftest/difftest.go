// Package difftest is the differential stress harness of the hardened
// verification stack: it runs a schedule-independent concurrent program
// under sequential consistency to obtain the reference final state, then
// ports the program with the atomig pipeline and re-executes it under
// the weak memory model across every fault-injection scheduler mode,
// failing on any divergence in final global state, thread returns, or
// termination status.
//
// The model checker (internal/mc) proves small programs exhaustively;
// this harness is the complementary randomized check that the whole
// stack — MiniC frontend, porting pipeline, view-machine memory model,
// adversarial schedulers — composes correctly on larger generated
// programs (internal/appgen.RunnableProgram).
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/atomig"
	"repro/internal/diag"
	"repro/internal/fanout"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/stress"
	"repro/internal/transform"
	"repro/internal/vm"
)

// Options configures a differential run.
type Options struct {
	// Seeds drives both the SC self-consistency check and the per-mode
	// weak-memory runs. Empty selects DefaultSeeds.
	Seeds []int64
	// Modes are the scheduler modes to stress. Empty selects every mode.
	Modes []vm.SchedMode
	// MaxSteps bounds each execution (0 = a generous default; the
	// adversarial schedulers stretch spin phases far beyond what a
	// uniform schedule needs).
	MaxSteps int64
	// Port configures the porting pipeline. Zero value selects
	// atomig.DefaultOptions.
	Port *atomig.Options
	// DetectRaces additionally runs the happens-before race detector
	// over the ported program's weak-memory executions. A race in the
	// ported program is compared against a naive all-SC port of the same
	// source (the paper's always-correct baseline): if the ported
	// program races while the naive port does not, the port missed an
	// access it should have promoted — a differential failure even when
	// the final states happen to agree.
	DetectRaces bool
	// Workers fans the seeded executions (SC reference runs, per-mode
	// weak-memory runs, race sweeps) out across that many goroutines
	// through fanout.Each and stress.Sweep. Every (mode, seed) cell is
	// independent, and on failure the error of the earliest cell in grid
	// order is reported, so the outcome is identical for every worker
	// count. 0 or 1 runs sequentially.
	Workers int
	// Obs, when non-nil, traces the harness stages on the "difftest"
	// track, counts grid progress (difftest.cells_completed,
	// difftest.reference_runs_completed), and threads through to the
	// pipeline, VM and stress-sweep metrics.
	Obs *obs.Provider
}

// DefaultSeeds is the seed set used when Options.Seeds is empty.
func DefaultSeeds() []int64 { return []int64{1, 2, 3, 4} }

const defaultMaxSteps = 4_000_000

// Result summarizes a passing differential run.
type Result struct {
	// Reference is the canonical final global state from the SC run.
	Reference map[string][]int64
	// Runs is the number of weak-memory executions compared.
	Runs int
	// RaceExecutions is the number of schedules the race sweep of the
	// ported program ran (stress.Result.Schedules) when
	// Options.DetectRaces is set.
	RaceExecutions int
}

// Run compiles src, establishes the SC reference state, ports the
// module, and checks every (mode, seed) weak-memory execution of the
// ported program against the reference. A non-nil error describes the
// first divergence or infrastructure failure.
func Run(src string, entries []string, opts Options) (_ *Result, err error) {
	defer diag.Guard("difftest.Run", &err)
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = DefaultSeeds()
	}
	modes := opts.Modes
	if len(modes) == 0 {
		modes = vm.AllSchedModes()
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	port := atomig.DefaultOptions()
	if opts.Port != nil {
		port = *opts.Port
	}
	if port.Obs == nil {
		port.Obs = opts.Obs
	}
	trk := opts.Obs.Track("difftest")
	rs := trk.Begin("difftest.run")
	defer rs.End()

	sp := trk.Begin("difftest.compile")
	res, err := minic.Compile("difftest", src)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("difftest: compile: %w", err)
	}

	// Reference: the program must be schedule-independent under SC, so
	// every seeded SC run must agree. A mismatch here means the input
	// program is invalid for differential testing (the generator broke
	// its own determinism contract), which is itself a bug worth failing.
	snaps := make([]map[string][]int64, len(seeds))
	rets := make([][]int64, len(seeds))
	cRef := opts.Obs.Counter("difftest.reference_runs_completed")
	sp = trk.Begin("difftest.reference")
	err = fanout.Each(opts.Workers, len(seeds), func(_, i int) error {
		snap, returns, err := execute(res.Module, vm.Options{
			Model:      memmodel.ModelSC,
			Entries:    entries,
			Controller: vm.NewScheduler(vm.SchedRandom, seeds[i]),
			MaxSteps:   maxSteps,
			Watchdog:   true,
			Obs:        opts.Obs,
		})
		if err != nil {
			return fmt.Errorf("difftest: SC reference (seed %d): %w", seeds[i], err)
		}
		snaps[i], rets[i] = snap, returns
		cRef.Inc()
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	ref, refReturns := snaps[0], rets[0]
	for i := 1; i < len(seeds); i++ {
		if diff := diffState(ref, refReturns, snaps[i], rets[i]); diff != "" {
			return nil, fmt.Errorf("difftest: program is schedule-dependent under SC (seed %d): %s", seeds[i], diff)
		}
	}

	ported, _, err := atomig.PortClone(res.Module, port)
	if err != nil {
		return nil, fmt.Errorf("difftest: port: %w", err)
	}

	cells := len(modes) * len(seeds)
	cCells := opts.Obs.Counter("difftest.cells_completed")
	sp = trk.Begin("difftest.grid").Arg("cells", cells)
	err = fanout.Each(opts.Workers, cells, func(_, i int) error {
		// The caller's seed anchors the cell; vm.GridSeed folds the mode
		// in so no two grid cells hand their schedulers the same RNG
		// stream (reusing the bare seed across modes would replay the
		// same PickNondet sequence in every mode of a column).
		mode, seed := modes[i/len(seeds)], seeds[i%len(seeds)]
		snap, returns, err := execute(ported, vm.Options{
			Model:      memmodel.ModelWMM,
			Entries:    entries,
			Controller: vm.NewScheduler(mode, vm.GridSeed(seed, mode, 0)),
			MaxSteps:   maxSteps,
			Watchdog:   true,
			Obs:        opts.Obs,
		})
		if err != nil {
			return fmt.Errorf("difftest: ported under WMM, sched=%s seed=%d: %w", mode, seed, err)
		}
		if diff := diffState(ref, refReturns, snap, returns); diff != "" {
			return fmt.Errorf("difftest: divergence under WMM, sched=%s seed=%d: %s", mode, seed, diff)
		}
		cCells.Inc()
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	out := &Result{Reference: ref, Runs: cells}

	if opts.DetectRaces {
		sp = trk.Begin("difftest.race_sweep")
		n, err := checkRaces(res.Module, ported, entries, modes, len(seeds), maxSteps, opts.Workers, opts.Obs)
		sp.End()
		if err != nil {
			return nil, err
		}
		out.RaceExecutions = n
	}
	return out, nil
}

// checkRaces sweeps the ported module for data races across the
// scheduler modes and, when any are found, repeats the sweep on a naive
// all-SC port of the original source as the control. Racy ported +
// clean control = the atomig port missed a promotion; racy control too
// = the program itself is racy beyond what any porting strategy fixes
// (reported as an infrastructure error, since difftest inputs are
// generated to be data-race-free once fully ported).
func checkRaces(orig, ported *ir.Module, entries []string, modes []vm.SchedMode, seeds int, maxSteps int64, workers int, p *obs.Provider) (int, error) {
	sweep := func(m *ir.Module) (*stress.Result, error) {
		return stress.Sweep(m, stress.Options{
			Model:    memmodel.ModelWMM,
			Entries:  entries,
			Modes:    modes,
			Seeds:    seeds,
			BaseSeed: 1,
			Sample:   1,
			MaxSteps: maxSteps,
			Workers:  workers,
			Obs:      p,
		})
	}
	pres, err := sweep(ported)
	if err != nil {
		return 0, fmt.Errorf("difftest: race sweep of ported program: %w", err)
	}
	if pres.Detector.Races() == 0 {
		return pres.Schedules, nil
	}
	control, err := ir.CloneModule(orig)
	if err != nil {
		return pres.Schedules, fmt.Errorf("difftest: clone for naive control: %w", err)
	}
	transform.Naive(control)
	cres, err := sweep(control)
	if err != nil {
		return pres.Schedules, fmt.Errorf("difftest: race sweep of naive control: %w", err)
	}
	if cres.Detector.Races() == 0 {
		return pres.Schedules, fmt.Errorf(
			"difftest: ported program races but the naive-SC control does not — the port missed a promotion:\n%s",
			race.FormatReports(pres.Races()))
	}
	return pres.Schedules, fmt.Errorf(
		"difftest: program races even under the naive-SC control (%d ported / %d control reports):\n%s",
		pres.Detector.Races(), cres.Detector.Races(), race.FormatReports(pres.Races()))
}

// execute runs one execution and returns the final global snapshot and
// per-thread returns. Any status other than a clean completion is an
// error; on a step-limit halt the watchdog's livelock diagnosis is
// attached.
func execute(m *ir.Module, opts vm.Options) (map[string][]int64, []int64, error) {
	v, err := vm.New(m, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := v.Run()
	if err != nil {
		return nil, nil, err
	}
	if out.Status != vm.StatusDone {
		msg := fmt.Sprintf("execution ended with status %s", out.Status)
		if len(out.Livelock) > 0 {
			msg += "\n" + vm.FormatLivelock(out.Livelock)
		}
		if out.FailMsg != "" {
			msg += ": " + out.FailMsg
		}
		return nil, nil, fmt.Errorf("%s", msg)
	}
	return v.Snapshot(), out.Returns, nil
}

// diffState reports the first difference between two final states, or
// "" when they are identical.
func diffState(refSnap map[string][]int64, refReturns []int64, snap map[string][]int64, returns []int64) string {
	if len(returns) != len(refReturns) {
		return fmt.Sprintf("thread count %d != %d", len(returns), len(refReturns))
	}
	for i := range refReturns {
		if returns[i] != refReturns[i] {
			return fmt.Sprintf("thread %d returned %d, reference %d", i, returns[i], refReturns[i])
		}
	}
	names := make([]string, 0, len(refSnap))
	for n := range refSnap {
		names = append(names, n)
	}
	sort.Strings(names)
	var diffs []string
	for _, n := range names {
		want, got := refSnap[n], snap[n]
		if len(got) != len(want) {
			diffs = append(diffs, fmt.Sprintf("%s: %d cells vs %d", n, len(got), len(want)))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				diffs = append(diffs, fmt.Sprintf("%s[%d] = %d, reference %d", n, i, got[i], want[i]))
			}
		}
	}
	if len(snap) != len(refSnap) {
		diffs = append(diffs, fmt.Sprintf("global count %d != %d", len(snap), len(refSnap)))
	}
	if len(diffs) == 0 {
		return ""
	}
	return strings.Join(diffs, "; ")
}
