package bench

import (
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// TestObsDisabledWithinNoise is the zero-cost gate for the disabled
// path: exploring with a nil provider must stay within noise of
// exploring with full metrics+tracing attached — the instrumentation
// sits on fragment and counter boundaries, never in the per-step
// interpreter loop, so a real regression (e.g. a span per execution or
// an allocation on the nil seam) shows up as a multiple, not a few
// percent. The bound is deliberately loose (2x, best of 3) to absorb
// scheduler noise on shared CI machines; the strict allocation gate for
// the nil seam lives in internal/obs (TestNilSafety).
func TestObsDisabledWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	p := corpus.Get("seqlock")
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	explore := func(prov *obs.Provider) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := mc.Check(m, mc.Options{
				Model:         memmodel.ModelWMM,
				Entries:       p.MCEntries,
				MaxExecutions: 5_000_000,
				TimeBudget:    2 * time.Minute,
				Workers:       1,
				Obs:           prov,
			})
			d := time.Since(t0)
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if res.Verdict == mc.VerdictUnknown {
				t.Fatalf("did not fully explore: %s", res.Reason)
			}
			if d < best {
				best = d
			}
		}
		return best
	}
	// Warm up caches and the scheduler before timing anything.
	explore(nil)
	on := explore(obs.NewTracing())
	off := explore(nil)
	if ratio := float64(off) / float64(on); ratio > 2.0 {
		t.Errorf("disabled observability is %.2fx slower than enabled (off=%v on=%v); the nil seam should be free", ratio, off, on)
	}
}

func benchmarkMCObs(b *testing.B, mkProv func() *obs.Provider) {
	p := corpus.Get("seqlock")
	m, err := p.Compile()
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	b.ReportAllocs()
	var execs int64
	for i := 0; i < b.N; i++ {
		var prov *obs.Provider
		if mkProv != nil {
			prov = mkProv()
		}
		res, err := mc.Check(m, mc.Options{
			Model:         memmodel.ModelWMM,
			Entries:       p.MCEntries,
			MaxExecutions: 5_000_000,
			TimeBudget:    2 * time.Minute,
			Workers:       1,
			Obs:           prov,
		})
		if err != nil {
			b.Fatalf("check: %v", err)
		}
		execs += int64(res.Executions)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(execs), "ns/exec")
}

// BenchmarkMCObsDisabled is the checker with a nil provider — the
// baseline every library caller gets.
func BenchmarkMCObsDisabled(b *testing.B) { benchmarkMCObs(b, nil) }

// BenchmarkMCObsEnabled attaches a fresh metrics+tracing provider per
// exploration, the -metrics -trace configuration.
func BenchmarkMCObsEnabled(b *testing.B) { benchmarkMCObs(b, obs.NewTracing) }
