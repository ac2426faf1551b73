// Package difftest is the differential stress harness of the hardened
// verification stack: it sweeps a schedule-independent concurrent
// program under sequential consistency to obtain the reference final
// state, then ports the program with the atomig pipeline and sweeps it
// under the weak memory model across every fault-injection scheduler
// mode, failing on any divergence in final global state, thread
// returns, or termination status. Both sweeps run on the stress engine
// (stress.Sweep with Outcomes), so every schedule grid in the repository
// runs on one engine.
//
// The model checker (internal/mc) proves small programs exhaustively;
// this harness is the complementary randomized check that the whole
// stack — MiniC frontend, porting pipeline, view-machine memory model,
// adversarial schedulers — composes correctly on larger generated
// programs (internal/appgen.RunnableProgram).
package difftest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/atomig"
	"repro/internal/diag"
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
	// Seeds is the number of schedules per scheduler mode in each sweep
	// (0 = 4).
	Seeds int
	// Modes are the scheduler modes to stress. Empty selects every mode.
	Modes []vm.SchedMode
	// MaxSteps bounds each execution (0 = a generous default; the
	// adversarial schedulers stretch spin phases far beyond what a
	// uniform schedule needs).
	MaxSteps int64
	// Port configures the porting pipeline. Zero value selects
	// atomig.DefaultOptions.
	Port *atomig.Options
	// DetectRaces additionally fails the run when the weak-memory sweep
	// of the ported program finds a data race. A race in the ported
	// program is compared against a naive all-SC port of the same
	// source (the paper's always-correct baseline): if the ported
	// program races while the naive port does not, the port missed an
	// access it should have promoted — a differential failure even when
	// the final states happen to agree.
	DetectRaces bool
	// Workers fans each sweep's schedule grid out across that many
	// goroutines (stress.Options.Workers). Outcomes come back in grid
	// order, so the error reported is the earliest failing cell's and
	// the result is identical for every worker count. 0 or 1 runs
	// sequentially.
	Workers int
	// Obs, when non-nil, traces the harness stages on the "difftest"
	// track and threads through to the pipeline and stress-sweep
	// metrics.
	Obs *obs.Provider
}

const (
	defaultSeeds    = 4
	defaultMaxSteps = 4_000_000
)

// Result summarizes a passing differential run.
type Result struct {
	// Reference is the canonical final global state from the SC sweep.
	Reference map[string][]int64
	// Runs is the number of weak-memory schedules of the ported program
	// compared against the reference.
	Runs int
}

// Run compiles src, establishes the SC reference state, ports the
// module, and checks every weak-memory schedule of the ported program
// against the reference. It sweeps the original once under SC, the
// port once under WMM, and — only when DetectRaces is set and the port
// races — a naive all-SC port as the control. A non-nil error describes
// the earliest divergence or infrastructure failure.
func Run(src string, entries []string, opts Options) (_ *Result, err error) {
	defer diag.Guard("difftest.Run", &err)
	so := stress.Options{
		Entries:  entries,
		Seeds:    opts.Seeds,
		BaseSeed: 1,
		Sample:   1,
		MaxSteps: opts.MaxSteps,
		Workers:  opts.Workers,
		Outcomes: true,
		Obs:      opts.Obs,
	}
	if len(opts.Modes) > 0 {
		so.Modes = opts.Modes
	}
	if so.Seeds == 0 {
		so.Seeds = defaultSeeds
	}
	if so.MaxSteps == 0 {
		so.MaxSteps = defaultMaxSteps
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
	// the SC sweep must end in exactly one outcome, a completed one. A
	// second outcome means the input program is invalid for differential
	// testing (the generator broke its own determinism contract), which
	// is itself a bug worth failing.
	so.Model = memmodel.ModelSC
	sp = trk.Begin("difftest.reference")
	sres, err := stress.Sweep(res.Module, so)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("difftest: SC reference: %w", err)
	}
	ref := sres.Outcomes[0]
	if err := compare(res.Module, so, sres.Outcomes, ref,
		"SC reference", "program is schedule-dependent under SC"); err != nil {
		return nil, err
	}

	ported, _, err := atomig.PortClone(res.Module, port)
	if err != nil {
		return nil, fmt.Errorf("difftest: port: %w", err)
	}
	so.Model = memmodel.ModelWMM
	sp = trk.Begin("difftest.grid")
	pres, err := stress.Sweep(ported, so)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("difftest: ported under WMM: %w", err)
	}
	if err := compare(ported, so, pres.Outcomes, ref, "ported under WMM", "divergence under WMM"); err != nil {
		return nil, err
	}
	if opts.DetectRaces && pres.Detector.Races() > 0 {
		// Racy port: blame it only if a naive all-SC port of the original
		// source sweeps clean (the control). A racy control means the
		// program itself is racy beyond what any porting strategy fixes,
		// which is an infrastructure error, since difftest inputs are
		// generated to be data-race-free once fully ported.
		control, err := ir.CloneModule(res.Module)
		if err != nil {
			return nil, fmt.Errorf("difftest: clone for naive control: %w", err)
		}
		transform.Naive(control)
		sp = trk.Begin("difftest.control")
		cres, err := stress.Sweep(control, so)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("difftest: race sweep of naive control: %w", err)
		}
		if cres.Detector.Races() == 0 {
			return nil, fmt.Errorf(
				"difftest: ported program races but the naive-SC control does not — the port missed a promotion:\n%s",
				race.FormatReports(pres.Races()))
		}
		return nil, fmt.Errorf(
			"difftest: program races even under the naive-SC control (%d ported / %d control reports):\n%s",
			pres.Detector.Races(), cres.Detector.Races(), race.FormatReports(pres.Races()))
	}
	return &Result{Reference: ref.Globals, Runs: pres.Schedules}, nil
}

// compare checks a sweep's outcomes, in grid order, against the
// reference outcome: the first one that did not complete fails as
// failed, and the first completed one that differs fails as diverged.
// Both name the outcome's first schedule, which replays it.
func compare(m *ir.Module, so stress.Options, outcomes []stress.Outcome, ref stress.Outcome, failed, diverged string) error {
	for _, o := range outcomes {
		if o.Status != vm.StatusDone {
			return fmt.Errorf("difftest: %s (%s): %w", failed, o.First, describe(m, so, o))
		}
		if diff := diffOutcome(ref, o); diff != "" {
			return fmt.Errorf("difftest: %s (%s): %s", diverged, o.First, diff)
		}
	}
	return nil
}

// describe renders a schedule that did not complete as an error. A
// step-limited schedule is replayed once with the livelock watchdog,
// whose diagnosis names the threads that were spinning.
func describe(m *ir.Module, so stress.Options, o stress.Outcome) error {
	msg := fmt.Sprintf("execution ended with status %s", o.Status)
	if o.Status == vm.StatusStepLimit {
		res, err := vm.Run(m, vm.Options{
			Model:      so.Model,
			Entries:    so.Entries,
			Controller: vm.NewScheduler(o.First.Mode, o.First.Seed),
			MaxSteps:   so.MaxSteps,
			Watchdog:   true,
		})
		if err != nil {
			return err
		}
		if len(res.Livelock) > 0 {
			msg += "\n" + vm.FormatLivelock(res.Livelock)
		}
	}
	if o.Msg != "" {
		msg += ": " + o.Msg
	}
	return errors.New(msg)
}

// diffOutcome reports how a completed outcome differs from the
// reference: the first differing thread return, else every differing
// global cell; "" when they are identical.
func diffOutcome(ref, o stress.Outcome) string {
	if len(o.Returns) != len(ref.Returns) {
		return fmt.Sprintf("thread count %d != %d", len(o.Returns), len(ref.Returns))
	}
	for i := range ref.Returns {
		if o.Returns[i] != ref.Returns[i] {
			return fmt.Sprintf("thread %d returned %d, reference %d", i, o.Returns[i], ref.Returns[i])
		}
	}
	names := make([]string, 0, len(ref.Globals))
	for n := range ref.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	var diffs []string
	for _, n := range names {
		want, got := ref.Globals[n], o.Globals[n]
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
	if len(o.Globals) != len(ref.Globals) {
		diffs = append(diffs, fmt.Sprintf("global count %d != %d", len(o.Globals), len(ref.Globals)))
	}
	return strings.Join(diffs, "; ")
}
