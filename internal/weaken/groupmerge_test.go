package weaken

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/race"
)

// referenceRound is the merge group testing replaced, kept as the
// differential reference: screen every candidate, then commit the
// survivors one at a time in site order, re-verifying cumulatively
// after each. The first alternative of a site that commits wins its
// rung; a site none of whose alternatives committed is frozen. Every
// check explores in full (referenceCheck), so the reference never
// relies on the early-stop rule of checkOptions. It screens on one
// goroutine whatever the worker count.
func referenceRound(w *weakener, _ int) (bool, error) {
	cands := w.candidates()
	if len(cands) == 0 {
		return false, nil
	}
	pass, err := referenceScreen(w, cands)
	if err != nil {
		return false, err
	}
	committed := make(map[int]bool)
	for ci, c := range cands {
		if committed[c.siteIdx] || !pass[ci] {
			continue
		}
		if err := w.ctxErr(); err != nil {
			return false, err
		}
		ok, err := referenceCommit(w, c)
		if err != nil {
			return false, err
		}
		if ok {
			committed[c.siteIdx] = true
		}
	}
	w.freeze(cands, committed)
	return len(committed) > 0, nil
}

// referenceCommit applies one candidate to the live module, re-verifies
// it cumulatively, and reverts it unless it is accepted.
func referenceCommit(w *weakener, c candidate) (bool, error) {
	s := &w.sites[c.siteIdx]
	blk := w.m.Funcs[s.fi].Blocks[s.bi]
	a := applied{c: c, prev: s.in.Ord, site: race.SiteString(s.in)}
	if c.del {
		if a.pos = s.pos(w.m); a.pos < 0 {
			return false, fmt.Errorf("weaken: site %s vanished from its block", a.site)
		}
		deleteInstr(blk, a.pos)
	} else {
		s.in.Ord = c.ord
	}
	revert := func() {
		if c.del {
			insertInstr(blk, a.pos, s.in)
		} else {
			s.in.Ord = a.prev
		}
	}
	res, err := referenceCheck(w, w.m)
	if err != nil {
		revert()
		return false, err
	}
	if !w.accepted(res) {
		revert()
		return false, nil
	}
	w.record(a)
	return true, nil
}

// referenceScreen verifies every candidate, in candidate order, against
// a private clone of the live module with one candidate applied.
func referenceScreen(w *weakener, cands []candidate) ([]bool, error) {
	pass := make([]bool, len(cands))
	for i, c := range cands {
		if err := w.ctxErr(); err != nil {
			return nil, err
		}
		s := &w.sites[c.siteIdx]
		pos := s.pos(w.m)
		if pos < 0 {
			return nil, fmt.Errorf("weaken: site %s vanished from its block", race.SiteString(s.in))
		}
		clone, err := ir.CloneModule(w.m)
		if err != nil {
			return nil, err
		}
		blk := clone.Funcs[s.fi].Blocks[s.bi]
		if c.del {
			deleteInstr(blk, pos)
		} else {
			blk.Instrs[pos].Ord = c.ord
		}
		res, err := referenceCheck(w, clone)
		if err != nil {
			return nil, err
		}
		if pass[i] = w.accepted(res); !pass[i] {
			w.tally(false)
		}
	}
	return pass, nil
}

// referenceCheck is the reference's own checker call: the run's
// harness and budgets with full exploration (no StopAtFirst), accounted
// like every exhaustive check.
func referenceCheck(w *weakener, m *ir.Module) (*mc.Result, error) {
	res, err := mc.Check(m, mc.Options{
		Model:           w.opts.Model,
		Entries:         w.opts.Entries,
		MaxExecutions:   w.opts.MaxExecs,
		MaxStepsPerExec: w.opts.MaxStepsPerExec,
		TimeBudget:      w.opts.TimeBudget,
		Context:         w.opts.Context,
		DetectRaces:     w.opts.DetectRaces,
	})
	if err != nil {
		return nil, err
	}
	w.note(res, false)
	return res, nil
}

// diffTarget is one program of the differential test.
type diffTarget struct {
	name        string
	detectRaces bool
	appgen      int64 // generator seed; 0 = corpus program
	slow        bool  // the reference merge takes more than a few seconds
}

// diffTargets lists every corpus program with a model-checking harness
// whose baseline settles within the budget, at the detector settings
// the weakening bench (bench.DefaultWeakenTargets) and the litmus
// conformance suite use, plus the two generated appgen modules of the
// bench. Six harnesses are left out because their baselines do not
// settle: five exhaust the 30 s time budget and iriw, with the detector
// on, the execution budget, so both merges refuse them identically
// after a minute of checking.
func diffTargets() []diffTarget {
	unsettled := map[string]bool{
		"ck_fifo": true, "ck_ring": true, "ck_spinlock_cas": true, "tas": true, "dcl": true, "iriw": true,
	}
	slow := map[string]bool{
		"cna-lock": true, "ck_spinlock_mcs": true, "ck_sequence": true, "ck_stack": true, "lf_hash": true,
	}
	// Detector settings: on for these, off for the rest, and both for
	// mp (on in the bench, off in the conformance suite).
	detectOn := map[string]bool{"seqlock-gap": true, "cna-lock": true}
	var out []diffTarget
	for _, name := range corpus.Names() {
		if len(corpus.Get(name).MCEntries) == 0 || unsettled[name] {
			continue
		}
		out = append(out, diffTarget{name: name, detectRaces: detectOn[name], slow: slow[name]})
		if name == "mp" {
			out = append(out, diffTarget{name: name, detectRaces: true})
		}
	}
	return append(out,
		diffTarget{name: "appgen-6", appgen: 6, slow: true},
		diffTarget{name: "appgen-11", appgen: 11, slow: true})
}

// ported compiles and ports the target, returning its harness entries.
func (d diffTarget) ported(t *testing.T) (*ir.Module, []string) {
	t.Helper()
	var orig *ir.Module
	var entries []string
	if d.appgen != 0 {
		src, ents := appgen.RunnableProgram(d.appgen)
		res, err := minic.Compile(d.name+".c", src)
		if err != nil {
			t.Fatal(err)
		}
		orig, entries = res.Module, ents
	} else {
		p := corpus.Get(d.name)
		m, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		orig, entries = m, p.MCEntries
	}
	ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ported, entries
}

// TestGroupMergeMatchesReference is the differential test of the
// group-tested merge against the one-at-a-time merge it replaced: on
// every target the reference runs once at 1 worker, and at 1 and at 4
// workers the group-tested run has the same weakened module, decision
// log, verdict, refusal reason and final cost, while spending no more
// checker calls. The reference explores every check in full, so the
// test also shows that the early-stop rule of candidate checks changes
// no decision.
func TestGroupMergeMatchesReference(t *testing.T) {
	for _, tgt := range diffTargets() {
		tgt := tgt
		t.Run(fmt.Sprintf("%s/races=%t", tgt.name, tgt.detectRaces), func(t *testing.T) {
			if tgt.appgen != 0 && testing.Short() {
				t.Skip("appgen rows take minutes of checking")
			}
			if tgt.slow && raceEnabled {
				t.Skip("too slow under the race detector")
			}
			t.Parallel()
			ported, entries := tgt.ported(t)
			run := func(round func(*weakener, int) (bool, error), workers int) (string, *Result) {
				m, err := ir.CloneModule(ported)
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions(entries)
				opts.DetectRaces = tgt.detectRaces
				opts.Workers = workers
				res, err := optimize(m, opts, round)
				if err != nil {
					t.Fatalf("-j %d: %v", workers, err)
				}
				return m.String(), res
			}
			wantM, want := run(referenceRound, 1)
			for _, workers := range []int{1, 4} {
				gotM, got := run((*weakener).round, workers)
				if gotM != wantM {
					t.Errorf("-j %d: weakened module differs from the reference:\n--- reference\n%s\n--- group-tested\n%s", workers, wantM, gotM)
				}
				if g, w := decisions(got), decisions(want); g != w {
					t.Errorf("-j %d: decisions differ:\n--- reference\n%s\n--- group-tested\n%s", workers, w, g)
				}
				if got.Verdict != want.Verdict || got.Reason != want.Reason || got.CostAfter != want.CostAfter {
					t.Errorf("-j %d: verdict %q reason %q cost_after %d; reference %q %q %d", workers,
						got.Verdict, got.Reason, got.CostAfter, want.Verdict, want.Reason, want.CostAfter)
				}
				if got.MCChecks > want.MCChecks {
					t.Errorf("-j %d: %d checker calls, reference %d", workers, got.MCChecks, want.MCChecks)
				}
				if got.Accepted != len(got.Decisions) || got.Tried != got.Accepted+got.Rejected {
					t.Errorf("-j %d: tried %d, accepted %d, rejected %d with %d decisions", workers,
						got.Tried, got.Accepted, got.Rejected, len(got.Decisions))
				}
				t.Logf("-j %d: cost %d -> %d, checks %d (reference %d), executions %d (reference %d, full exploration)", workers,
					got.CostBefore, got.CostAfter, got.MCChecks, want.MCChecks, got.MCExecutions, want.MCExecutions)
			}
		})
	}
}

// decisions renders a decision log for comparison.
func decisions(res *Result) string {
	var b strings.Builder
	for _, d := range res.Decisions {
		fmt.Fprintf(&b, "%s [%s %s]\n", d, d.Fn, d.Loc)
	}
	return b.String()
}

// TestCheckOptionsStopRule pins the early-stop rule of checkOptions:
// the baseline check and every candidate check of a racy baseline
// explore in full, and only candidate checks (screen and merge) of a
// verified baseline stop at the first violation or race. Every other
// option comes from the run's Options in every role.
func TestCheckOptionsStopRule(t *testing.T) {
	opts := DefaultOptions([]string{"reader", "writer"})
	opts.MaxExecs, opts.MaxStepsPerExec, opts.TimeBudget = 1234, 567, time.Minute
	w := &weakener{opts: opts}
	want := mc.Options{
		Model: memmodel.ModelWMM, Entries: opts.Entries, DetectRaces: true,
		MaxExecutions: 1234, MaxStepsPerExec: 567, TimeBudget: time.Minute,
	}
	cases := []struct {
		name string
		base *mc.Result // nil: the baseline check itself runs before any verdict
		role checkRole
		stop bool
	}{
		{"baseline role", nil, roleBaseline, false},
		{"verified baseline, screen", &mc.Result{Verdict: mc.VerdictPass}, roleScreen, true},
		{"verified baseline, merge", &mc.Result{Verdict: mc.VerdictPass}, roleMerge, true},
		{"racy baseline, screen", &mc.Result{Verdict: mc.VerdictRace}, roleScreen, false},
		{"racy baseline, merge", &mc.Result{Verdict: mc.VerdictRace}, roleMerge, false},
	}
	for _, tc := range cases {
		w.base = tc.base
		got := w.checkOptions(tc.role)
		if got.StopAtFirst != tc.stop {
			t.Errorf("%s: StopAtFirst = %t, want %t", tc.name, got.StopAtFirst, tc.stop)
		}
		got.StopAtFirst = false
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: options %+v, want %+v", tc.name, got, want)
		}
	}
}
