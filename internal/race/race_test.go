// Corpus integration tests for the race detector. These live in an
// external test package because they drive the atomig porting pipeline
// and the stress sweep engine, which both import internal/race.
package race_test

import (
	"strings"
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/stress"
	"repro/internal/transform"
	"repro/internal/vm"
)

func compileProgram(t *testing.T, name string) (*corpus.Program, *ir.Module) {
	t.Helper()
	p := corpus.Get(name)
	if p == nil {
		t.Fatalf("corpus program %q not registered", name)
	}
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p, m
}

// port applies the named strategy: the full atomig pipeline for
// programs with detectable synchronization patterns, the naive
// all-SC strategy for pure litmus races (which atomig legitimately
// leaves alone — they have no synchronization to seed from).
func port(t *testing.T, m *ir.Module, strategy string) {
	t.Helper()
	switch strategy {
	case "atomig":
		if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
			t.Fatalf("atomig.Port: %v", err)
		}
	case "naive":
		transform.Naive(m)
	default:
		t.Fatalf("unknown port strategy %q", strategy)
	}
}

// sweep runs the detector over a schedule grid the way the race-sweep
// callers (atomig -explain-races, serve, difftest) do: every plain
// location observed, under the VM's own step budget, grid anchored at
// base seed 1.
func sweep(t *testing.T, m *ir.Module, opts stress.Options) *stress.Result {
	t.Helper()
	opts.BaseSeed, opts.Sample, opts.MaxSteps = 1, 1, vm.DefaultMaxSteps
	res, err := stress.Sweep(m, opts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return res
}

// raceCases is the shared table: every program the detector must flag
// on the legacy source, with the port strategy whose output must be
// race-free.
var raceCases = []struct {
	name string
	port string
}{
	{"sb", "naive"},
	{"lb", "naive"},
	{"iriw", "naive"},
	{"corr", "naive"},
	{"mp", "atomig"},
	{"tas", "atomig"},
	{"seqlock-gap", "atomig"},
}

// TestLegacyProgramsRaceUnderEveryMode asserts the racy verdict for
// each corpus program under each scheduler mode separately: a single
// seeded execution per mode must already expose the race (these are
// all unconditional races — every interleaving contains the
// conflicting pair).
func TestLegacyProgramsRaceUnderEveryMode(t *testing.T) {
	for _, tc := range raceCases {
		for _, mode := range vm.AllSchedModes() {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				p, m := compileProgram(t, tc.name)
				res := sweep(t, m, stress.Options{
					Model:   memmodel.ModelWMM,
					Entries: p.MCEntries,
					Modes:   []vm.SchedMode{mode},
					Seeds:   2,
				})
				if res.Detector.Races() == 0 {
					t.Fatalf("no races reported for legacy %s under %s", tc.name, mode)
				}
			})
		}
	}
}

// TestPortedProgramsRaceFree is the negative control: the ported
// variant of every racy program must survive the full scheduler-mode
// sweep with zero races and zero execution failures.
func TestPortedProgramsRaceFree(t *testing.T) {
	for _, tc := range raceCases {
		t.Run(tc.name, func(t *testing.T) {
			p, m := compileProgram(t, tc.name)
			port(t, m, tc.port)
			res := sweep(t, m, stress.Options{
				Model:   memmodel.ModelWMM,
				Entries: p.MCEntries,
				Seeds:   4,
			})
			if n := res.Detector.Races(); n != 0 {
				t.Fatalf("ported %s (%s) still races (%d reports):\n%s",
					tc.name, tc.port, n, race.FormatReports(res.Races()))
			}
			// Only the atomig-ported programs must also run clean: the
			// naive all-SC port eliminates races, but this machine's SC
			// atomics deliberately keep weak outcomes unless fenced (see
			// memmodel's eligible-read rule), so sb's assert may still trip.
			if v := res.Violations(); tc.port == "atomig" && len(v) != 0 {
				t.Fatalf("ported %s (%s) failed executions: %v", tc.name, tc.port, v)
			}
		})
	}
}

// TestSeqlockGapReportsExactField is the issue's acceptance check: the
// migration-gap program must be flagged with a report naming the struct
// field the port should have promoted (%gen:0, the generation counter
// the writer still stores with plain accesses).
func TestSeqlockGapReportsExactField(t *testing.T) {
	p, m := compileProgram(t, "seqlock-gap")
	res := sweep(t, m, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: p.MCEntries,
		Seeds:   4,
	})
	var found bool
	var locs []string
	for _, r := range res.Races() {
		locs = append(locs, r.Loc.String())
		if r.Loc.String() == "%gen:0" {
			found = true
			// The gap pairs the reader's already-ported atomic load
			// with the writer's plain store: exactly one side atomic.
			if r.Prior.Atomic == r.Current.Atomic {
				t.Errorf("expected mixed atomic/plain pair on %%gen:0, got prior=%v current=%v",
					r.Prior.Atomic, r.Current.Atomic)
			}
		}
	}
	if !found {
		t.Fatalf("no race on %%gen:0; reported locations: %v", locs)
	}
}

// TestDetectorFlagsRacesUnderStrongModels checks the static-atomicity
// rule: a data race is a property of the program, not the model, so the
// same plain-access races must be reported even when executing under
// TSO and SC machines whose effective orderings hide the reordering.
func TestDetectorFlagsRacesUnderStrongModels(t *testing.T) {
	for _, model := range []memmodel.Model{memmodel.ModelSC, memmodel.ModelTSO} {
		t.Run(model.String(), func(t *testing.T) {
			p, m := compileProgram(t, "mp")
			var races int
			if model == memmodel.ModelSC {
				// stress.Options reads the zero Model (ModelSC) as its
				// WMM default, so the SC machine is driven directly:
				// the same two random-mode grid cells, one detector.
				det := race.New(model, race.Options{})
				for s := int64(1); s <= 2; s++ {
					det.BeginExec()
					if _, err := vm.Run(m, vm.Options{
						Model:      model,
						Entries:    p.MCEntries,
						Controller: vm.NewScheduler(vm.SchedRandom, vm.GridSeed(1, vm.SchedRandom, s)),
						Hook:       det,
					}); err != nil {
						t.Fatalf("run: %v", err)
					}
				}
				races = det.Races()
			} else {
				races = sweep(t, m, stress.Options{
					Model:   model,
					Entries: p.MCEntries,
					Modes:   []vm.SchedMode{vm.SchedRandom},
					Seeds:   2,
				}).Detector.Races()
			}
			if races == 0 {
				t.Fatalf("mp not flagged under %s: races are model-independent", model)
			}
		})
	}
}

// TestReportProvenance checks the report rendering carries both access
// sites with function/block/instruction provenance and the symbolic
// location.
func TestReportProvenance(t *testing.T) {
	p, m := compileProgram(t, "mp")
	res := sweep(t, m, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: p.MCEntries,
		Modes:   []vm.SchedMode{vm.SchedRandom},
		Seeds:   1,
	})
	out := race.FormatReports(res.Races())
	for _, want := range []string{"data race on @", "@writer", "@reader", "clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestDedupAcrossExecutions checks that a sweep's many executions
// report each site pair once with an occurrence count, not once per
// execution.
func TestDedupAcrossExecutions(t *testing.T) {
	p, m := compileProgram(t, "sb")
	res := sweep(t, m, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: p.MCEntries,
		Seeds:   4,
	})
	n := res.Detector.Races()
	if n == 0 {
		t.Fatal("no races on sb")
	}
	// sb has 2 globals × (write/read, write/write is absent) — a small
	// fixed set of site pairs; 20 executions must not multiply them.
	if n > 8 {
		t.Fatalf("dedup failed: %d distinct reports", n)
	}
	var counted bool
	for _, r := range res.Races() {
		if r.Count > 1 {
			counted = true
		}
	}
	if !counted {
		t.Error("no report accumulated an occurrence count > 1 across 20 executions")
	}
}

// TestMaxReportsCap checks the report cap: further distinct races are
// dropped.
func TestMaxReportsCap(t *testing.T) {
	p, m := compileProgram(t, "iriw")
	res := sweep(t, m, stress.Options{
		Model:      memmodel.ModelWMM,
		Entries:    p.MCEntries,
		Modes:      []vm.SchedMode{vm.SchedRandom},
		Seeds:      2,
		MaxReports: 1,
	})
	if n := res.Detector.Races(); n != 1 {
		t.Fatalf("cap ignored: %d reports with MaxReports=1", n)
	}
}
