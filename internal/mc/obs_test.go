package mc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// TestSharedProviderBudgets: concurrent checks that share one provider
// keep their own execution budgets and statistics. Each of four checks
// gets a budget of exactly the executions the same check needs alone,
// so a check that counted another's executions against its budget, or
// reported them as its own, would stop short with an unknown verdict.
func TestSharedProviderBudgets(t *testing.T) {
	m := compileCorpus(t, "ck_sequence")
	if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Model: memmodel.ModelWMM, Entries: corpus.Get("ck_sequence").MCEntries,
		TimeBudget: 5 * time.Minute,
	}
	solo, err := Check(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Verdict != VerdictPass {
		t.Fatalf("solo check: %s (%s), want verified", solo.Verdict, solo.Reason)
	}
	opts.MaxExecutions = solo.Executions
	opts.Obs = obs.New()
	const checks = 4
	res := make([]*Result, checks)
	errs := make([]error, checks)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Check(m, opts)
		}()
	}
	wg.Wait()
	for i, r := range res {
		if errs[i] != nil {
			t.Fatalf("check %d: %v", i, errs[i])
		}
		if r.Verdict != VerdictPass || r.Executions != solo.Executions || r.Pruned != solo.Pruned ||
			r.Truncated != solo.Truncated || r.States != solo.States {
			t.Errorf("check %d: %s (%s) executions=%d pruned=%d truncated=%d states=%d; solo: verified executions=%d pruned=%d truncated=%d states=%d",
				i, r.Verdict, r.Reason, r.Executions, r.Pruned, r.Truncated, r.States,
				solo.Executions, solo.Pruned, solo.Truncated, solo.States)
		}
	}
	if got, want := opts.Obs.Snapshot().Counters["mc.executions_explored"], int64(checks*solo.Executions); got != want {
		t.Errorf("mc.executions_explored = %d, want %d (%d checks of %d)", got, want, checks, solo.Executions)
	}
}

// TestCountersSumResults: the mc.* counters of a provider are the sums
// of the Results of the checks that ran on it — a parallel check, a
// budget-cut one and the check resuming it, which reports (and
// publishes) the carried counts as its own.
func TestCountersSumResults(t *testing.T) {
	m := compileCorpus(t, "seqlock")
	if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	prov := obs.New()
	base := Options{
		Model: memmodel.ModelWMM, Entries: corpus.Get("seqlock").MCEntries,
		TimeBudget: 5 * time.Minute, Obs: prov,
	}
	check := func(opts Options) *Result {
		t.Helper()
		res, err := Check(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par := base
	par.Workers = 4
	cut := base
	cut.MaxExecutions = 50
	first, second := check(par), check(cut)
	if second.Verdict != VerdictUnknown || len(second.Resume) == 0 {
		t.Fatalf("budget-cut check: %s with %d tokens, want unknown with a resume token", second.Verdict, len(second.Resume))
	}
	resumed := base
	resumed.Resume = second.Resume
	third := check(resumed)
	if third.Verdict != VerdictPass {
		t.Fatalf("resumed check: %s (%s), want verified", third.Verdict, third.Reason)
	}

	all := []*Result{first, second, third}
	sum := func(field func(*Result) int64) int64 {
		var n int64
		for _, r := range all {
			n += field(r)
		}
		return n
	}
	c := prov.Snapshot().Counters
	for name, want := range map[string]int64{
		"mc.executions_explored":   sum(func(r *Result) int64 { return int64(r.Executions) }),
		"mc.executions_pruned":     sum(func(r *Result) int64 { return int64(r.Pruned) }),
		"mc.executions_truncated":  sum(func(r *Result) int64 { return int64(r.Truncated) }),
		"mc.states_recorded":       sum(func(r *Result) int64 { return int64(r.States) }),
		"mc.vms_reset":             sum(func(r *Result) int64 { return r.VMResets }),
		"mc.vms_allocated":         sum(func(r *Result) int64 { return r.VMAllocs }),
		"mc.shard_locks_contended": sum(func(r *Result) int64 { return r.ShardContention }),
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d (the sum over three Results)", name, c[name], want)
		}
	}
	if c["mc.fragments_claimed"] < 3 {
		t.Errorf("mc.fragments_claimed = %d, want at least one fragment per check", c["mc.fragments_claimed"])
	}
}
