package atomig

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/stress"
	"repro/internal/vm"
)

// sweepCorpus compiles a corpus program and runs the race detector over
// it with the -explain-races sweep, returning the explanation and its
// rendering.
func sweepCorpus(t *testing.T, name string) (*RaceExplanation, string) {
	t.Helper()
	p := corpus.Get(name)
	if p == nil {
		t.Fatalf("corpus program %q not registered", name)
	}
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := stress.Sweep(m, stress.Options{
		Model:    memmodel.ModelWMM,
		Entries:  p.MCEntries,
		Seeds:    4,
		BaseSeed: 1,
		Sample:   1,
		MaxSteps: vm.DefaultMaxSteps,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	ex := ExplainRaces(m, res.Races())
	return ex, ex.String()
}

// TestExplainSeqlockGap: the explanation must single out %gen:0 as a
// migration gap (the reader's load is atomic, the writer's stores are
// plain) and list the writer's stores as promotion candidates.
func TestExplainSeqlockGap(t *testing.T) {
	ex, out := sweepCorpus(t, "seqlock-gap")
	var gap *RaceLocale
	for _, l := range ex.Locales {
		if l.Loc.String() == "%gen:0" {
			gap = l
		}
	}
	if gap == nil {
		t.Fatalf("no locale for %%gen:0:\n%s", out)
	}
	if !gap.Gap() {
		t.Fatalf("%%gen:0 not classified as a migration gap (plain=%d atomic=%d)",
			len(gap.PlainSites), gap.AtomicSites)
	}
	if len(gap.PlainSites) != 2 {
		t.Fatalf("expected the writer's 2 plain seq stores, got %d", len(gap.PlainSites))
	}
	for _, in := range gap.PlainSites {
		if !strings.Contains(race.SiteString(in), "@writer") {
			t.Errorf("promotion candidate outside @writer: %s", race.SiteString(in))
		}
	}
	// Gaps sort first: the partially atomic location leads the output.
	if ex.Locales[0] != gap {
		t.Errorf("migration gap not sorted first")
	}
	for _, want := range []string{"migration gap", "promote: @writer", "%gen:0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestExplainUnportedLocation: mp has no atomic accesses at all, so its
// locations are classified as unported rather than as gaps.
func TestExplainUnportedLocation(t *testing.T) {
	ex, out := sweepCorpus(t, "mp")
	if len(ex.Locales) == 0 {
		t.Fatalf("no locales for mp:\n%s", out)
	}
	for _, l := range ex.Locales {
		if l.Gap() {
			t.Errorf("%s misclassified as partially-ported gap", l.Loc)
		}
		if l.AtomicSites != 0 {
			t.Errorf("%s has %d atomic sites in unported mp", l.Loc, l.AtomicSites)
		}
	}
	if !strings.Contains(out, "unported location") {
		t.Errorf("output lacks unported-location classification:\n%s", out)
	}
}

// TestExplainEmpty: no reports, no noise.
func TestExplainEmpty(t *testing.T) {
	p := corpus.Get("mp")
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ex := ExplainRaces(m, nil)
	if len(ex.Locales) != 0 || len(ex.Unattributed) != 0 {
		t.Fatal("non-empty explanation from no reports")
	}
	if !strings.Contains(ex.String(), "no races") {
		t.Errorf("empty rendering = %q", ex.String())
	}
}
