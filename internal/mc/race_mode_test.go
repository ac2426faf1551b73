package mc

import (
	"testing"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/transform"
)

func compileCorpus(t *testing.T, name string) *ir.Module {
	t.Helper()
	p := corpus.Get(name)
	if p == nil {
		t.Fatalf("corpus program %q not registered", name)
	}
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return m
}

func checkRaces(t *testing.T, m *ir.Module, model memmodel.Model, entries ...string) *Result {
	t.Helper()
	res, err := Check(m, Options{
		Model: model, Entries: entries, DetectRaces: true,
		MaxExecutions: 300_000, TimeBudget: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

// TestRaceModeSeqlockGap is the issue's model-checking acceptance
// criterion: exhaustive exploration of the legacy migration-gap program
// yields the racy verdict with a report naming the un-promoted struct
// field, and the atomig-ported program is verified race-free.
func TestRaceModeSeqlockGap(t *testing.T) {
	legacy := compileCorpus(t, "seqlock-gap")
	res := checkRaces(t, legacy, memmodel.ModelWMM, "reader", "writer")
	if res.Verdict != VerdictRace {
		t.Fatalf("legacy seqlock-gap verdict = %s, want racy (reason %q)", res.Verdict, res.Reason)
	}
	var found bool
	for _, r := range res.Races {
		if r.Loc.String() == "%gen:0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no race on %%gen:0 among %d reports", len(res.Races))
	}

	ported := compileCorpus(t, "seqlock-gap")
	if _, err := atomig.Port(ported, atomig.DefaultOptions()); err != nil {
		t.Fatalf("atomig.Port: %v", err)
	}
	pres := checkRaces(t, ported, memmodel.ModelWMM, "reader", "writer")
	if pres.Verdict != VerdictPass {
		t.Fatalf("ported seqlock-gap verdict = %s, want verified (reason %q, %d races)",
			pres.Verdict, pres.Reason, len(pres.Races))
	}
	if len(pres.Races) != 0 {
		t.Fatalf("ported seqlock-gap reported %d races", len(pres.Races))
	}
}

// TestRaceVerdictPrecedence: an assertion violation outranks a race —
// legacy MP under WMM both races and fails, and the verdict is the
// violation while the race reports remain available.
func TestRaceVerdictPrecedence(t *testing.T) {
	m := compileCorpus(t, "mp")
	res := checkRaces(t, m, memmodel.ModelWMM, "reader", "writer")
	if res.Verdict != VerdictFail {
		t.Fatalf("legacy mp verdict = %s, want violated", res.Verdict)
	}
	if len(res.Races) == 0 {
		t.Fatal("legacy mp reported no races alongside the violation")
	}
}

// TestRaceModeCleanProgram: a fully atomic program is verified with
// zero races — the detector adds no false positives and the
// fingerprint-extended hash still lets exploration terminate.
func TestRaceModeCleanProgram(t *testing.T) {
	m := compileCorpus(t, "corr")
	transform.Naive(m)
	res := checkRaces(t, m, memmodel.ModelWMM, "main_thread")
	if res.Verdict != VerdictPass {
		t.Fatalf("naive corr verdict = %s, want verified (reason %q)", res.Verdict, res.Reason)
	}
	if len(res.Races) != 0 {
		t.Fatalf("naive corr reported %d races", len(res.Races))
	}
}

// TestRaceWitnessReplay: with traces on, each newly racy execution is
// replayed into a visible-operation witness through the same
// counterexample path violations use.
func TestRaceWitnessReplay(t *testing.T) {
	m := compileCorpus(t, "lb")
	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"main_thread"},
		DetectRaces: true, Traces: true,
		MaxExecutions: 50_000, TimeBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(res.Races) == 0 {
		t.Fatal("lb reported no races")
	}
	if len(res.RaceWitnesses) == 0 {
		t.Fatal("no race witnesses replayed")
	}
	for _, w := range res.RaceWitnesses {
		if len(w.Events) == 0 {
			t.Fatalf("race witness %q has no events", w.Msg)
		}
	}
}

// TestStopAtFirstRace: StopAtFirst halts exploration at the first racy
// execution without a violation.
func TestStopAtFirstRace(t *testing.T) {
	m := compileCorpus(t, "iriw")
	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"main_thread"},
		DetectRaces: true, StopAtFirst: true,
		MaxExecutions: 300_000, TimeBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict != VerdictRace {
		t.Fatalf("verdict = %s, want racy", res.Verdict)
	}
	if res.Executions != 1 {
		t.Fatalf("StopAtFirst explored %d executions, want 1", res.Executions)
	}
}

// TestStopAtFirstCountsFrontier: a check stopped at its first finding
// reports the branches it left unexplored, exactly as a check cut by an
// execution budget at the same count does.
func TestStopAtFirstCountsFrontier(t *testing.T) {
	for _, name := range []string{"mp", "sb", "seqlock-gap"} {
		m := compileCorpus(t, name)
		opts := Options{
			Model: memmodel.ModelWMM, Entries: corpus.Get(name).MCEntries,
			DetectRaces: true, Workers: 1, TimeBudget: 10 * time.Second,
		}
		stopped := opts
		stopped.StopAtFirst = true
		sres, err := Check(m, stopped)
		if err != nil {
			t.Fatalf("%s: stop-at-first: %v", name, err)
		}
		cut := opts
		cut.MaxExecutions = sres.Executions
		cres, err := Check(m, cut)
		if err != nil {
			t.Fatalf("%s: budget cut: %v", name, err)
		}
		if sres.Frontier == 0 || sres.Executions != cres.Executions || sres.Frontier != cres.Frontier {
			t.Errorf("%s: stop-at-first %d executions, frontier %d; budget cut at %d: %d executions, frontier %d",
				name, sres.Executions, sres.Frontier, sres.Executions, cres.Executions, cres.Frontier)
		}
		if sres.Resume != nil {
			t.Errorf("%s: a verdict stop returned %d resume tokens", name, len(sres.Resume))
		}
	}
}
