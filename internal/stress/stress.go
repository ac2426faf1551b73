// Package stress is the schedule-fuzzing stress mode: production-scale
// race testing beyond the model checker's exhaustive reach (in the
// spirit of C11Tester's controlled-random testing over a weak-memory
// execution engine).
//
// Where internal/mc enumerates every interleaving of a litmus-sized
// program, stress runs plain executions — no state-space exploration,
// no choice-trace bookkeeping — of arbitrarily large modules under a
// grid of seeded adversarial schedules (the vm scheduler modes), with
// the happens-before detector attached behind a per-location sampler
// that bounds its per-step overhead. Each worker owns one pooled VM
// (recycled through vm.Reset between schedules, the model checker's
// own allocation-free replay seam), so a 100k-line module sweeps at
// thousands of schedules per second.
//
// The contract is asymmetric, and docs/STRESS.md spells it out:
// a stress finding is a real execution, so every reported race or
// violation is true (no false positives — the sampler only ever skips
// whole plain locations, never half of one); a clean sweep is evidence,
// not proof. Findings are minimized (Minimize) into litmus-sized
// programs the model checker then confirms exhaustively, and the
// engine doubles as the weakening optimizer's screening oracle
// (weaken.Options.Oracle).
//
// Determinism: the schedule of grid cell i is a pure function of
// (BaseSeed, mode, ordinal) via vm.GridSeed — never of the worker that
// claims the cell — and findings are assembled in grid order with
// earliest-cell attribution, so the result is byte-identical for every
// Workers value and every run.
package stress

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/diag"
	"repro/internal/fanout"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/vm"
)

// Options configures a stress sweep.
type Options struct {
	// Model is the memory model executions run under (the zero Model
	// selects ModelWMM: stress hunts the weak behaviors TSO code misses).
	Model memmodel.Model
	// Entries are the functions started as initial threads; required.
	Entries []string
	// Modes are the scheduler modes to sweep; nil selects all of them.
	Modes []vm.SchedMode
	// Seeds is the number of schedules per mode (0 = 256).
	Seeds int
	// BaseSeed anchors the schedule derivation: cell (mode, s) runs
	// under vm.GridSeed(BaseSeed, mode, s+1). Two sweeps with the same
	// BaseSeed replay the same schedules; 0 selects 1.
	BaseSeed int64
	// Sample is the fraction of plain (non-synchronizing) locations the
	// race detector observes, 0 < Sample <= 1; 0 selects 1 (observe
	// everything). Synchronization-relevant accesses are always
	// forwarded regardless — see sampler.go for the soundness boundary.
	Sample float64
	// MaxSteps bounds each schedule's instruction count (0 = 200_000).
	MaxSteps int64
	// Workers fans the schedule grid out across that many goroutines,
	// each owning one pooled VM and a private detector (0 or 1 =
	// sequential). The result is identical for every value.
	Workers int
	// MaxReports caps the distinct races retained (0 = 32).
	MaxReports int
	// Outcomes records every schedule's outcome (Result.Outcomes). It
	// is opt-in: snapshotting every global after each schedule costs as
	// much as a large module's schedule itself.
	Outcomes bool
	// Context, when non-nil, cancels the sweep between schedules.
	Context context.Context
	// Obs, when non-nil, receives the sweep's stress.* counters once,
	// when it returns without error, a stress.schedule_steps observation
	// per schedule, and spans (docs/OBSERVABILITY.md).
	Obs *obs.Provider
}

// Schedule identifies one seeded schedule of the grid: everything
// needed to replay it exactly.
type Schedule struct {
	// Mode is the scheduler mode.
	Mode vm.SchedMode `json:"mode"`
	// Ordinal is the 1-based seed ordinal within the mode.
	Ordinal int `json:"ordinal"`
	// Seed is the derived scheduler seed (vm.GridSeed of the sweep's
	// BaseSeed, Mode and Ordinal) — vm.NewScheduler(Mode, Seed) replays
	// the schedule.
	Seed int64 `json:"seed"`
	// Cell is the grid index the schedule occupied in its sweep.
	Cell int `json:"cell"`
}

func (s Schedule) String() string {
	return fmt.Sprintf("%s#%d (seed %d)", s.Mode, s.Ordinal, s.Seed)
}

// FindingKind classifies a finding.
type FindingKind int

// Finding kinds.
const (
	// FindingRace is a data race witnessed by the happens-before
	// detector.
	FindingRace FindingKind = iota
	// FindingViolation is an outright execution failure: assertion
	// violation or deadlock.
	FindingViolation
)

func (k FindingKind) String() string {
	if k == FindingViolation {
		return "violation"
	}
	return "race"
}

// Finding is one stress discovery with its schedule provenance: the
// seed that exposed it replays it.
type Finding struct {
	Kind     FindingKind
	Schedule Schedule
	// Report is the race (FindingRace); nil for violations.
	Report *race.Report
	// Msg is the failure message (FindingViolation).
	Msg string
}

func (f Finding) String() string {
	if f.Kind == FindingViolation {
		return fmt.Sprintf("violation under %s: %s", f.Schedule, f.Msg)
	}
	return fmt.Sprintf("race under %s: %s", f.Schedule, f.Report.Key())
}

// Outcome is one distinct way schedules of a sweep ended.
type Outcome struct {
	// Status is how the schedule ended, and Msg its failure message
	// (empty for a completed schedule).
	Status vm.Status
	Msg    string
	// Returns holds the entry threads' return values, in Entries order.
	Returns []int64
	// Globals maps every global to its final cells; nil unless Status
	// is vm.StatusDone.
	Globals map[string][]int64
	// First is the earliest grid schedule that ended this way, and
	// Count the number of schedules that did.
	First Schedule
	Count int
}

// Result reports a stress sweep.
type Result struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// Steps is the total instruction count across all schedules.
	Steps int64
	// Findings lists every distinct discovery in grid order. A race is
	// attributed to the earliest grid cell that exposed it (the
	// attribution is worker-count-invariant).
	Findings []Finding
	// Detector holds the merged distinct race reports.
	Detector *race.Detector
	// StepLimited counts schedules cut short by the step budget —
	// possible livelocks, not findings.
	StepLimited int
	// Forwarded and Skipped count detector-visible vs sampled-out
	// accesses (Skipped is 0 at Sample = 1).
	Forwarded, Skipped int64
	// VMResets and VMAllocs count pooled-VM recycling vs fresh builds.
	VMResets, VMAllocs int64
	// Outcomes lists the distinct schedule outcomes in grid order of
	// their first schedule (Options.Outcomes; nil otherwise).
	Outcomes []Outcome
	// Elapsed is the sweep wall clock.
	Elapsed time.Duration
}

// Races returns the distinct races found.
func (r *Result) Races() []*race.Report { return r.Detector.Reports() }

// Violations returns the violation findings' messages, in grid order.
func (r *Result) Violations() []string {
	var out []string
	for _, f := range r.Findings {
		if f.Kind == FindingViolation {
			out = append(out, fmt.Sprintf("%s: %s", f.Schedule, f.Msg))
		}
	}
	return out
}

// resolve applies the option defaults.
func (o *Options) resolve() {
	o.Model = o.Model.Or(memmodel.ModelWMM)
	if o.Modes == nil {
		o.Modes = vm.AllSchedModes()
	}
	if o.Seeds == 0 {
		o.Seeds = 256
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Sample <= 0 || o.Sample > 1 {
		o.Sample = 1
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.MaxReports == 0 {
		o.MaxReports = 32
	}
}

// cell is one schedule's recorded outcome, written only by the worker
// that claimed it.
type cell struct {
	ran        bool
	steps      int64
	stepLimit  bool
	violation  string // empty when the execution passed
	newReports []*race.Report
	// outcome is the schedule's outcome and outKey its canonical key
	// (Options.Outcomes only).
	outcome *Outcome
	outKey  string
}

// sweeper is one worker's private state, built on its first cell: a
// detector behind its sampler, and the pooled VM driven by the worker
// scheduler that is reseeded per schedule.
type sweeper struct {
	det *race.Detector
	smp *sampler
	ctl *vm.WorkerScheduler
	v   *vm.VM
	// resets and allocs count this worker's VM reuses and builds.
	resets, allocs int64
}

// outcomeOf records how the schedule v just ran ended, with its
// canonical key. It must run before v's next Reset, which clears the
// final memory.
func outcomeOf(m *ir.Module, v *vm.VM, res *vm.Result) (*Outcome, string) {
	o := &Outcome{Status: res.Status, Msg: res.FailMsg, Returns: res.Returns}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%q|%v", o.Status, o.Msg, o.Returns)
	if res.Status == vm.StatusDone {
		o.Globals = v.Snapshot()
		for _, g := range m.Globals {
			fmt.Fprintf(&b, "|%v", o.Globals[g.GName])
		}
	}
	return o, b.String()
}

// Sweep runs the schedule grid over the module's entry threads.
// Execution failures and races are findings, not errors; the error
// return is reserved for engine failures, with the earliest grid cell's
// error winning (what a sequential sweep would have reported).
func Sweep(m *ir.Module, opts Options) (res *Result, err error) {
	defer diag.Guard("stress.Sweep", &err)
	if len(opts.Entries) == 0 {
		return nil, fmt.Errorf("stress: no entry functions")
	}
	opts.resolve()
	start := time.Now()

	cells := make([]cell, len(opts.Modes)*opts.Seeds)
	workers := opts.Workers
	if workers > len(cells) {
		workers = len(cells)
	}

	hSteps := opts.Obs.Histogram("stress.schedule_steps")
	sp := opts.Obs.Track("stress").Begin("stress.sweep").
		Arg("module", m.Name).Arg("cells", len(cells)).
		Arg("sample", fmt.Sprintf("%g", opts.Sample)).Arg("workers", workers)
	defer sp.End()

	out := &Result{}
	ws := make([]*sweeper, workers)

	err = fanout.Each(workers, len(cells), func(w, i int) error {
		if opts.Context != nil && opts.Context.Err() != nil {
			return nil
		}
		sw := ws[w]
		if sw == nil {
			// 4x headroom over the resolved cap so a single saturated
			// worker does not make the merged (sorted, capped) set
			// depend on how the grid was partitioned.
			det := race.New(opts.Model, race.Options{MaxReports: 4 * opts.MaxReports, Obs: opts.Obs})
			sw = &sweeper{det: det, smp: newSampler(det, opts.Model, opts.Sample), ctl: vm.NewWorkerScheduler()}
			ws[w] = sw
		}
		sc := scheduleOf(opts, i)
		sw.ctl.Reseed(sc.Mode, sc.Seed)
		sw.smp.begin(mix(uint64(sc.Seed)))
		sw.det.BeginExec()
		var err error
		if sw.v == nil {
			sw.v, err = vm.New(m, vm.Options{
				Model:      opts.Model,
				Entries:    opts.Entries,
				Controller: sw.ctl,
				MaxSteps:   opts.MaxSteps,
				Costs:      vm.DefaultCosts(),
				Hook:       sw.smp,
			})
			sw.allocs++
		} else {
			err = sw.v.Reset()
			sw.resets++
		}
		if err != nil {
			return fmt.Errorf("stress (%s): %w", sc, err)
		}
		res, err := sw.v.Run()
		if err != nil {
			return fmt.Errorf("stress (%s): %w", sc, err)
		}
		c := &cells[i]
		c.ran = true
		c.steps = res.Steps
		hSteps.Observe(res.Steps)
		switch res.Status {
		case vm.StatusAssertFailed, vm.StatusDeadlock:
			c.violation = fmt.Sprintf("%s: %s", res.Status, res.FailMsg)
		case vm.StatusStepLimit:
			c.stepLimit = true
		}
		c.newReports = append([]*race.Report(nil), sw.det.ExecNewReports()...)
		if opts.Outcomes {
			c.outcome, c.outKey = outcomeOf(m, sw.v, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge: distinct races by canonical key, findings and outcomes in
	// grid order with earliest-cell attribution. The earliest grid cell
	// exposing a race always records it (no earlier cell of its worker
	// could have deduplicated it away) and its recorded report depends
	// only on that cell's deterministic execution, so taking the first
	// recording cell's report as the representative is
	// worker-count-invariant — unlike MergeReports' first-list-wins
	// choice, whose clock vectors would leak the grid partitioning.
	// Occurrence counts still sum across every worker's detector: the
	// total is per-cell work, not per-worker work. Outcomes are keyed the
	// same way, so each is credited to the lowest cell that ended so.
	counts := make(map[string]int)
	for _, sw := range ws {
		if sw == nil {
			continue
		}
		for _, r := range sw.det.Reports() {
			counts[r.Key()] += r.Count
		}
	}
	reps := make(map[string]*race.Report, len(counts))
	var mergedList []*race.Report
	outcomeAt := make(map[string]int)
	for i := range cells {
		c := &cells[i]
		if !c.ran {
			continue
		}
		sc := scheduleOf(opts, i)
		if c.stepLimit {
			out.StepLimited++
		}
		if c.violation != "" {
			out.Findings = append(out.Findings, Finding{
				Kind: FindingViolation, Schedule: sc, Msg: c.violation,
			})
		}
		for _, r := range c.newReports {
			k := r.Key()
			if reps[k] != nil {
				continue
			}
			rep := new(race.Report)
			*rep = *r
			rep.Count = counts[k]
			reps[k] = rep
			mergedList = append(mergedList, rep)
			out.Findings = append(out.Findings, Finding{
				Kind: FindingRace, Schedule: sc, Report: rep,
			})
		}
		if c.outcome != nil {
			if j, ok := outcomeAt[c.outKey]; ok {
				out.Outcomes[j].Count++
			} else {
				o := *c.outcome
				o.First, o.Count = sc, 1
				outcomeAt[c.outKey] = len(out.Outcomes)
				out.Outcomes = append(out.Outcomes, o)
			}
		}
		out.Steps += c.steps
	}
	sorted := append([]*race.Report(nil), mergedList...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	if len(sorted) > opts.MaxReports {
		sorted = sorted[:opts.MaxReports]
	}
	merged := race.New(opts.Model, race.Options{MaxReports: opts.MaxReports})
	merged.Adopt(sorted)
	out.Detector = merged
	out.Schedules = countRan(cells)
	// Each worker accumulated its tallies locally; fold them in.
	for _, sw := range ws {
		if sw != nil {
			out.Forwarded += sw.smp.forwarded
			out.Skipped += sw.smp.skipped
			out.VMResets += sw.resets
			out.VMAllocs += sw.allocs
		}
	}
	opts.Obs.Counter("stress.schedules_run").Add(int64(out.Schedules))
	opts.Obs.Counter("stress.accesses_forwarded").Add(out.Forwarded)
	opts.Obs.Counter("stress.accesses_skipped").Add(out.Skipped)
	out.Elapsed = time.Since(start)
	if races, viols := out.tallyFindings(); races+viols > 0 {
		opts.Obs.Counter("stress.races_found").Add(int64(races))
		opts.Obs.Counter("stress.violations_found").Add(int64(viols))
		opts.Obs.Log().Event("stress.findings").
			Str("module", m.Name).Int("races", int64(races)).Int("violations", int64(viols)).Emit()
	}
	sp.Arg("schedules", out.Schedules).Arg("findings", len(out.Findings))
	return out, nil
}

// tallyFindings counts findings by kind.
func (r *Result) tallyFindings() (races, violations int) {
	for _, f := range r.Findings {
		if f.Kind == FindingRace {
			races++
		} else {
			violations++
		}
	}
	return
}

// scheduleOf maps a grid cell index to its schedule (mode-major: every
// ordinal of one mode, then the next mode).
func scheduleOf(opts Options, i int) Schedule {
	mode := opts.Modes[i/opts.Seeds]
	ordinal := i%opts.Seeds + 1
	return Schedule{
		Mode:    mode,
		Ordinal: ordinal,
		Seed:    vm.GridSeed(opts.BaseSeed, mode, int64(ordinal)),
		Cell:    i,
	}
}

// countRan counts executed cells.
func countRan(cells []cell) int {
	n := 0
	for i := range cells {
		if cells[i].ran {
			n++
		}
	}
	return n
}

// Replay re-executes one schedule exactly — same scheduler seed, same
// sampling salt — with a fresh full-history detector, optionally with
// the visible-operation trace enabled. The returned detector holds
// exactly the races that schedule exposes.
func Replay(m *ir.Module, opts Options, sc Schedule, trace bool) (*vm.Result, *race.Detector, error) {
	opts.resolve()
	det := race.New(opts.Model, race.Options{MaxReports: opts.MaxReports, Obs: opts.Obs})
	smp := newSampler(det, opts.Model, opts.Sample)
	smp.begin(mix(uint64(sc.Seed)))
	res, err := vm.Run(m, vm.Options{
		Model:        opts.Model,
		Entries:      opts.Entries,
		Controller:   vm.NewScheduler(sc.Mode, sc.Seed),
		MaxSteps:     opts.MaxSteps,
		Costs:        vm.DefaultCosts(),
		Hook:         smp,
		TraceVisible: trace,
		Obs:          opts.Obs,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("stress replay (%s): %w", sc, err)
	}
	return res, det, nil
}
