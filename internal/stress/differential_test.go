package stress

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/vm"
)

// sweepOutcome is everything a sweep's callers read: the grid size,
// the failed cells, the deduplicated reports, and the distinct
// schedule outcomes.
type sweepOutcome struct {
	schedules   int
	steps       int64
	stepLimited int
	violations  []string // "mode#ordinal: status: message", grid order
	counts      map[string]int
	reports     string // race.FormatReports of the key-sorted reports
	explain     string // atomig.ExplainRaces rendering
	outcomes    []Outcome
}

// referenceSweep is the slow path Sweep replaced as the sweep of
// -explain-races, serve and difftest: a fresh VM per grid cell, one
// detector shared across the whole grid, cells in grid order, and each
// cell's final state compared against every outcome seen before it.
func referenceSweep(m *ir.Module, model memmodel.Model, entries []string, seeds int) (*sweepOutcome, error) {
	det := race.New(model, race.Options{})
	out := &sweepOutcome{}
	for mi, mode := range vm.AllSchedModes() {
		for s := 1; s <= seeds; s++ {
			det.BeginExec()
			seed := vm.GridSeed(1, mode, int64(s))
			v, err := vm.New(m, vm.Options{
				Model:      model,
				Entries:    entries,
				Controller: vm.NewScheduler(mode, seed),
				MaxSteps:   vm.DefaultMaxSteps,
				Costs:      vm.DefaultCosts(),
				Hook:       det,
			})
			if err != nil {
				return nil, fmt.Errorf("%s#%d: %w", mode, s, err)
			}
			res, err := v.Run()
			if err != nil {
				return nil, fmt.Errorf("%s#%d: %w", mode, s, err)
			}
			out.schedules++
			out.steps += res.Steps
			switch res.Status {
			case vm.StatusAssertFailed, vm.StatusDeadlock:
				out.violations = append(out.violations,
					fmt.Sprintf("%s#%d: %s: %s", mode, s, res.Status, res.FailMsg))
			case vm.StatusStepLimit:
				out.stepLimited++
			}
			o := Outcome{Status: res.Status, Msg: res.FailMsg, Returns: res.Returns}
			if res.Status == vm.StatusDone {
				o.Globals = v.Snapshot()
			}
			out.addOutcome(o, Schedule{Mode: mode, Ordinal: s, Seed: seed, Cell: mi*seeds + s - 1})
		}
	}
	out.summarize(m, det.Reports())
	return out, nil
}

// addOutcome counts o against an equal earlier outcome, or records it
// as new with sc as its first schedule.
func (o *sweepOutcome) addOutcome(oc Outcome, sc Schedule) {
	for i := range o.outcomes {
		prev := &o.outcomes[i]
		if prev.Status == oc.Status && prev.Msg == oc.Msg &&
			reflect.DeepEqual(prev.Returns, oc.Returns) && reflect.DeepEqual(prev.Globals, oc.Globals) {
			prev.Count++
			return
		}
	}
	oc.First, oc.Count = sc, 1
	o.outcomes = append(o.outcomes, oc)
}

// stressOutcome reads the same fields off a Sweep result.
func stressOutcome(m *ir.Module, res *Result) *sweepOutcome {
	out := &sweepOutcome{schedules: res.Schedules, steps: res.Steps, stepLimited: res.StepLimited,
		outcomes: res.Outcomes}
	for _, f := range res.Findings {
		if f.Kind == FindingViolation {
			out.violations = append(out.violations,
				fmt.Sprintf("%s#%d: %s", f.Schedule.Mode, f.Schedule.Ordinal, f.Msg))
		}
	}
	out.summarize(m, res.Races())
	return out
}

// summarize fills the report-derived fields from reports sorted by key.
func (o *sweepOutcome) summarize(m *ir.Module, reports []*race.Report) {
	sorted := append([]*race.Report(nil), reports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	o.counts = make(map[string]int, len(sorted))
	for _, r := range sorted {
		o.counts[r.Key()] = r.Count
	}
	o.reports = race.FormatReports(sorted)
	o.explain = atomig.ExplainRaces(m, sorted).String()
}

// TestSweepMatchesReferenceSweep is the differential test of the pooled
// fast path against the per-cell fresh-VM sweep it replaced: over every
// corpus program with a model-checking harness, unported and ported,
// under WMM, TSO and SC, at 1 and 8 workers, the two must agree on the
// schedule count, total steps, the violating cells, every race key and
// its occurrence count, the rendered reports byte for byte, the
// -explain-races advice, and the distinct outcomes (status, message,
// returns and final globals) with each one's first schedule and count.
// The 8-worker sweeps must also leave no goroutine behind.
func TestSweepMatchesReferenceSweep(t *testing.T) {
	leakcheck.Check(t)
	const seeds = 4
	var configs, racy, violating, divergent int
	for _, p := range corpus.All() {
		if len(p.MCEntries) == 0 {
			continue
		}
		for _, ported := range []bool{false, true} {
			m, err := p.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", p.Name, err)
			}
			variant := "unported"
			if ported {
				variant = "ported"
				if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
					t.Fatalf("%s: port: %v", p.Name, err)
				}
			}
			for _, model := range []memmodel.Model{memmodel.ModelWMM, memmodel.ModelTSO, memmodel.ModelSC} {
				name := fmt.Sprintf("%s/%s/%s", p.Name, variant, model)
				want, err := referenceSweep(m, model, p.MCEntries, seeds)
				if err != nil {
					t.Fatalf("%s: reference sweep: %v", name, err)
				}
				configs++
				if len(want.counts) > 0 {
					racy++
				}
				if len(want.violations) > 0 {
					violating++
				}
				if len(want.outcomes) > 1 {
					divergent++
				}
				for _, workers := range []int{1, 8} {
					res, err := Sweep(m, Options{
						Model:    model,
						Entries:  p.MCEntries,
						Seeds:    seeds,
						BaseSeed: 1,
						Sample:   1,
						MaxSteps: vm.DefaultMaxSteps,
						Workers:  workers,
						Outcomes: true,
					})
					if err != nil {
						t.Fatalf("%s j=%d: sweep: %v", name, workers, err)
					}
					got := stressOutcome(m, res)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s j=%d: stress sweep differs from the reference sweep\n%s",
							name, workers, outcomeDiff(got, want))
					}
				}
			}
		}
	}
	// The comparison is only as strong as the findings it compares.
	if racy == 0 || violating == 0 || racy == configs || divergent == 0 {
		t.Fatalf("degenerate corpus: %d configurations, %d racy, %d violating, %d with several outcomes",
			configs, racy, violating, divergent)
	}
	t.Logf("%d configurations: %d racy, %d violating, %d with several outcomes", configs, racy, violating, divergent)
}

// outcomeDiff names the fields on which two outcomes differ.
func outcomeDiff(got, want *sweepOutcome) string {
	var b strings.Builder
	line := func(field string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			fmt.Fprintf(&b, "%s:\n  got  %v\n  want %v\n", field, g, w)
		}
	}
	line("schedules", got.schedules, want.schedules)
	line("steps", got.steps, want.steps)
	line("step-limited", got.stepLimited, want.stepLimited)
	line("violations", got.violations, want.violations)
	line("counts", got.counts, want.counts)
	line("reports", got.reports, want.reports)
	line("explain", got.explain, want.explain)
	line("outcomes", got.outcomes, want.outcomes)
	return b.String()
}
