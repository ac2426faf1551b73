package weaken_test

import (
	"strings"
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/weaken"
)

// portedCorpus compiles and ports one corpus program.
func portedCorpus(t *testing.T, name string) (*ir.Module, *corpus.Program) {
	t.Helper()
	p := corpus.Get(name)
	orig, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ported, p
}

// decisionLog renders the accepted weakening set for comparison.
func decisionLog(res *weaken.Result) string {
	var b strings.Builder
	for _, d := range res.Decisions {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOracleStressRescuesUnknown: a budget too small for the
// exhaustive checker refuses the run ("baseline unknown"); the stress
// oracle, whose verdicts are witnesses rather than proofs, weakens the
// same program under the same tiny exploration budget end to end.
func TestOracleStressRescuesUnknown(t *testing.T) {
	ported, p := portedCorpus(t, "seqlock-gap")

	opts := weaken.DefaultOptions(p.MCEntries)
	opts.MaxExecs = 20 // far below the program's state space
	_, refused, err := weaken.OptimizeClone(ported, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(refused.Reason, "baseline unknown") {
		t.Fatalf("exhaustive run under a starvation budget should refuse, got reason %q", refused.Reason)
	}

	opts.Oracle = weaken.OracleStress
	opts.Workers = 4
	_, res, err := weaken.OptimizeClone(ported, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "" {
		t.Fatalf("stress oracle refused: %s", res.Reason)
	}
	if res.Verdict != "stress-clean" {
		t.Fatalf("verdict %q, want stress-clean", res.Verdict)
	}
	if res.Oracle != "stress" {
		t.Fatalf("oracle provenance %q, want stress", res.Oracle)
	}
	if res.CostAfter >= res.CostBefore {
		t.Fatalf("no cost reduction: %d -> %d", res.CostBefore, res.CostAfter)
	}
	if res.MCChecks != 0 {
		t.Fatalf("stress oracle ran %d exhaustive checks", res.MCChecks)
	}
	if res.StressChecks == 0 {
		t.Fatal("stress oracle recorded no stress checks")
	}
	t.Logf("stress oracle: cost %d -> %d (%.1f%%), %d stress checks / %d schedules",
		res.CostBefore, res.CostAfter, res.Reduction(), res.StressChecks, res.StressSchedules)
}

// TestOracleStressDeterministicAcrossWorkers: the stress oracle keeps
// the determinism contract — the weakened module is byte-identical at
// every screening fan-out.
func TestOracleStressDeterministicAcrossWorkers(t *testing.T) {
	ported, p := portedCorpus(t, "seqlock-gap")
	var want string
	for _, workers := range []int{1, 4} {
		opts := weaken.DefaultOptions(p.MCEntries)
		opts.Oracle = weaken.OracleStress
		opts.Workers = workers
		opts.StressSeeds = 16
		m, res, err := weaken.OptimizeClone(ported, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != "" {
			t.Fatalf("refused: %s", res.Reason)
		}
		got := m.String() + decisionLog(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("stress-oracle output differs at %d workers", workers)
		}
	}
}

// TestParseOracleMode: every mode round-trips; junk, "screened"
// included, is rejected.
func TestParseOracleMode(t *testing.T) {
	for _, m := range weaken.AllOracleModes() {
		got, err := weaken.ParseOracleMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %s: got %v, %v", m, got, err)
		}
	}
	for _, junk := range []string{"fuzzy", "screened"} {
		if _, err := weaken.ParseOracleMode(junk); err == nil {
			t.Errorf("oracle name %q parsed", junk)
		}
	}
}

// TestSaltOracleFields: the oracle configuration is part of the cache
// fingerprint, and the default (exhaustive) fingerprint is unchanged
// from before the seam existed.
func TestSaltOracleFields(t *testing.T) {
	base := weaken.DefaultOptions([]string{"t0"})
	if s := base.Salt(); strings.Contains(s, "oracle=") {
		t.Errorf("default salt mentions the oracle: %s", s)
	}
	a := base
	a.Oracle = weaken.OracleStress
	b := a
	b.StressSeeds = 64
	c := a
	c.StressSample = 0.5
	salts := map[string]bool{base.Salt(): true, a.Salt(): true, b.Salt(): true, c.Salt(): true}
	if len(salts) != 4 {
		t.Errorf("oracle fields do not all change the salt: %v", salts)
	}
}
