package weaken

import (
	"testing"

	"repro/internal/mc"
)

// TestScreenChoice pins how the default oracle picks its screening
// engine. White-box: a baseline of stressScreenAbove executions keeps
// the screen on the checker, one more execution moves it to a stress
// sweep, and the baseline and merge checks stay on the checker either
// way; under OracleStress every role sweeps. End to end: cna-lock's
// baseline sits above the crossover, so it records stress screens and
// spends fewer checker calls than the same run screened on the checker,
// for the same module; seqlock-gap's sits below and records none.
func TestScreenChoice(t *testing.T) {
	roles := []struct {
		name string
		role checkRole
	}{{"baseline", roleBaseline}, {"screen", roleScreen}, {"merge", roleMerge}}
	cases := []struct {
		oracle OracleMode
		execs  int
		want   [3]bool // baseline, screen, merge
	}{
		{OracleExhaustive, 0, [3]bool{false, false, false}},
		{OracleExhaustive, stressScreenAbove, [3]bool{false, false, false}},
		{OracleExhaustive, stressScreenAbove + 1, [3]bool{false, true, false}},
		{OracleStress, 0, [3]bool{true, true, true}},
		{OracleStress, stressScreenAbove + 1, [3]bool{true, true, true}},
	}
	for _, tc := range cases {
		for i, r := range roles {
			w := &weakener{opts: Options{Oracle: tc.oracle}}
			// The baseline check runs before there is a baseline.
			if r.role != roleBaseline {
				w.base = &mc.Result{Executions: tc.execs}
			}
			if got := w.stressed(r.role); got != tc.want[i] {
				t.Errorf("%s, %d baseline executions, %s: stressed = %t, want %t",
					tc.oracle, tc.execs, r.name, got, tc.want[i])
			}
		}
	}

	// checkerScreens runs a round with the baseline's size capped at the
	// crossover, so every screen runs on the checker.
	checkerScreens := func(w *weakener, workers int) (bool, error) {
		if w.base.Executions > stressScreenAbove {
			b := *w.base
			b.Executions = stressScreenAbove
			w.base = &b
		}
		return w.round(workers)
	}
	run := func(name string, round func(*weakener, int) (bool, error)) (string, *Result) {
		t.Helper()
		ported, entries := diffTarget{name: name}.ported(t)
		opts := DefaultOptions(entries)
		opts.Workers = 4
		res, err := optimize(ported, opts, round)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Reason != "" || res.Oracle != "" {
			t.Fatalf("%s: reason %q, oracle %q", name, res.Reason, res.Oracle)
		}
		return ported.String(), res
	}

	if _, gap := run("seqlock-gap", (*weakener).round); gap.StressChecks != 0 || gap.MCExecutions == 0 {
		t.Errorf("seqlock-gap: %d stress screens, %d checker executions; want checker screens only",
			gap.StressChecks, gap.MCExecutions)
	}

	if raceEnabled {
		t.Skip("cna-lock is too slow under the race detector")
	}
	gotM, got := run("cna-lock", (*weakener).round)
	wantM, want := run("cna-lock", checkerScreens)
	if got.StressChecks == 0 || want.StressChecks != 0 {
		t.Fatalf("cna-lock: %d stress screens (checker-screened run: %d), want > 0 (0)",
			got.StressChecks, want.StressChecks)
	}
	if per := got.StressSchedules / got.StressChecks; per != 5*defaultStressSeeds {
		t.Errorf("cna-lock: %d schedules per stress screen, want %d", per, 5*defaultStressSeeds)
	}
	if got.MCChecks >= want.MCChecks {
		t.Errorf("cna-lock: %d checker calls with stress screens, %d with checker screens; want fewer",
			got.MCChecks, want.MCChecks)
	}
	if gotM != wantM || decisions(got) != decisions(want) {
		t.Errorf("cna-lock: module or decisions differ between stress and checker screens")
	}
	t.Logf("cna-lock: %d checker calls + %d stress screens (%d schedules); checker screens: %d checker calls",
		got.MCChecks, got.StressChecks, got.StressSchedules, want.MCChecks)
}
