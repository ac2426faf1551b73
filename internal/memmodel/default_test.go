package memmodel_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/stress"
	"repro/internal/vm"
	"repro/internal/weaken"
)

// compileMP compiles the mp corpus program, ported when asked.
func compileMP(t *testing.T, ported bool) (*ir.Module, []string) {
	t.Helper()
	p := corpus.Get("mp")
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if ported {
		if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
			t.Fatalf("port: %v", err)
		}
	}
	return m, p.MCEntries
}

// delaySeed is the mp schedule whose assertion fails under WMM and
// holds under SC (the first delay cell of a base-seed-1 stress grid).
var delaySeed = vm.GridSeed(1, vm.SchedDelay, 1)

// raceKeys renders a detector's report keys, sorted.
func raceKeys(rs []*race.Report) string {
	keys := make([]string, 0, len(rs))
	for _, r := range rs {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestZeroModelDefaults pins what the zero (unset) Model means at each
// entry point: SC for vm.Run, mc.Check and race.New; WMM for
// stress.Sweep, stress.Minimize and weaken.Optimize. Each call with the
// zero Model must equal the same call under its documented default, and
// differ from the call under the other model, so the comparison can
// tell the two apart.
func TestZeroModelDefaults(t *testing.T) {
	cases := []struct {
		name       string
		def, other memmodel.Model
		run        func(t *testing.T, model memmodel.Model) string
	}{
		{"vm.Run", memmodel.ModelSC, memmodel.ModelWMM, func(t *testing.T, model memmodel.Model) string {
			m, entries := compileMP(t, false)
			res, err := vm.Run(m, vm.Options{
				Model: model, Entries: entries, Controller: vm.NewScheduler(vm.SchedDelay, delaySeed),
			})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%s %d %v", res.Status, res.Steps, res.Returns)
		}},
		{"mc.Check", memmodel.ModelSC, memmodel.ModelWMM, func(t *testing.T, model memmodel.Model) string {
			m, entries := compileMP(t, false)
			res, err := mc.Check(m, mc.Options{Model: model, Entries: entries, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%s %d %d %v", res.Verdict, res.Executions, res.States, res.Violations)
		}},
		{"race.New", memmodel.ModelSC, memmodel.ModelWMM, func(t *testing.T, model memmodel.Model) string {
			// The same WMM execution, interpreted by the detector under
			// the model at hand.
			m, entries := compileMP(t, false)
			det := race.New(model, race.Options{})
			if _, err := vm.Run(m, vm.Options{
				Model: memmodel.ModelWMM, Entries: entries,
				Controller: vm.NewScheduler(vm.SchedRandom, 1), Hook: det,
			}); err != nil {
				t.Fatal(err)
			}
			return raceKeys(det.Reports())
		}},
		{"stress.Sweep", memmodel.ModelWMM, memmodel.ModelSC, func(t *testing.T, model memmodel.Model) string {
			m, entries := compileMP(t, false)
			res, err := stress.Sweep(m, stress.Options{Model: model, Entries: entries, Seeds: 4, Outcomes: true})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%v\n%s\n%d outcomes", res.Violations(), raceKeys(res.Races()), len(res.Outcomes))
		}},
		{"stress.Minimize", memmodel.ModelWMM, memmodel.ModelSC, func(t *testing.T, model memmodel.Model) string {
			m, entries := compileMP(t, false)
			sw, err := stress.Sweep(m, stress.Options{Model: memmodel.ModelSC, Entries: entries, Seeds: 4})
			if err != nil || len(sw.Races()) == 0 {
				t.Fatalf("no race to minimize (err %v)", err)
			}
			res, err := stress.Minimize(m, stress.MinimizeOptions{
				Model: model, Entries: entries, Target: sw.Races()[0], Workers: 1,
			})
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprintf("%d instrs, %s", res.Instrs, res.Confirm.Verdict)
		}},
		{"weaken.Optimize", memmodel.ModelWMM, memmodel.ModelSC, func(t *testing.T, model memmodel.Model) string {
			m, entries := compileMP(t, true)
			opts := weaken.DefaultOptions(entries)
			opts.Model = model
			res, err := weaken.Optimize(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("cost %d -> %d, %d accepted\n%s", res.CostBefore, res.CostAfter, res.Accepted, m)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			zero, def, other := tc.run(t, 0), tc.run(t, tc.def), tc.run(t, tc.other)
			if zero != def {
				t.Errorf("zero Model differs from %s:\nzero: %s\n%s: %s", tc.def, zero, tc.def, def)
			}
			if def == other {
				t.Errorf("%s and %s agree, so the comparison cannot tell them apart:\n%s", tc.def, tc.other, def)
			}
		})
	}
}

// TestSaltResolvesModel: weaken.Options.Salt fingerprints the resolved
// model, so an unset Model and ModelWMM share a fingerprint.
func TestSaltResolvesModel(t *testing.T) {
	opts := weaken.DefaultOptions([]string{"t0"})
	zero := opts
	zero.Model = 0
	if opts.Salt() != zero.Salt() {
		t.Errorf("salts differ:\nWMM:  %s\nzero: %s", opts.Salt(), zero.Salt())
	}
	sc := opts
	sc.Model = memmodel.ModelSC
	if sc.Salt() == opts.Salt() {
		t.Errorf("SC and WMM share a salt: %s", sc.Salt())
	}
}
