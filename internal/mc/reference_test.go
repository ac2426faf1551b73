package mc

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/vm"
)

// referenceCheck is the sequential explorer the frontier-split engine
// replaced, kept as the differential reference: one depth-first loop
// over one recycled VM and one visited cache. It has no time budget,
// cancellation, tracing, metrics or early stop: it explores until the
// state space or opts.MaxExecutions runs out. It reports the
// violations deduplicated and sorted, the race reports of its one
// detector, and, when the execution budget cut it short, the
// whole-tree resume token of the frontier it stopped at.
func referenceCheck(m *ir.Module, opts Options) (*Result, error) {
	if opts.MaxExecutions == 0 {
		opts.MaxExecutions = 1_000_000
	}
	if opts.MaxStepsPerExec == 0 {
		opts.MaxStepsPerExec = 100_000
	}
	d := &dfs{}
	visited := newShardMap(1, nil)
	vopts := vm.Options{
		Model:      opts.Model,
		Entries:    opts.Entries,
		Controller: d,
		MaxSteps:   opts.MaxStepsPerExec,
	}
	var det *race.Detector
	if opts.DetectRaces {
		det = race.New(opts.Model, race.Options{MaxReports: opts.MaxRaceReports})
		vopts.Hook = det
	}
	res := &Result{Workers: 1}
	seen := make(map[string]bool)
	var v *vm.VM
	fullyExplored := false
	for res.Executions < opts.MaxExecutions {
		if det != nil {
			det.BeginExec()
		}
		var err error
		if v == nil {
			v, err = vm.New(m, vopts)
		} else {
			err = v.Reset()
		}
		if err != nil {
			return nil, err
		}
		violated, truncated, pruned := runOne(v, d, visited, det)
		res.Executions++
		if pruned {
			res.Pruned++
		}
		if truncated {
			res.Truncated++
		}
		if violated != "" && !seen[violated] {
			seen[violated] = true
			res.Violations = append(res.Violations, violated)
		}
		if !d.backtrack() {
			fullyExplored = true
			break
		}
	}
	sort.Strings(res.Violations)
	res.States = visited.size()
	if det != nil {
		res.Races = det.Reports()
	}
	stopped := ""
	if !fullyExplored {
		stopped = "execution budget exhausted"
		tok := &ResumeToken{
			trace:      append([]choice(nil), d.trace...),
			executions: res.Executions,
			pruned:     res.Pruned,
			truncated:  res.Truncated,
		}
		res.Frontier = tok.Frontier()
		res.Resume = []*ResumeToken{tok}
	}
	switch {
	case len(res.Violations) > 0:
		res.Verdict = VerdictFail
	case len(res.Races) > 0:
		res.Verdict = VerdictRace
	case fullyExplored && res.Truncated == 0:
		res.Verdict = VerdictPass
	default:
		res.Verdict = VerdictUnknown
		if stopped == "" {
			stopped = "step-truncated executions"
		}
	}
	if res.Verdict == VerdictUnknown || res.Verdict == VerdictFail {
		res.Reason = stopped
	}
	return res, nil
}

// raceKeys returns the sorted race-report keys of a result.
func raceKeys(res *Result) []string {
	keys := make([]string, 0, len(res.Races))
	for _, r := range res.Races {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return keys
}

// refRow is one row of the differential test: a program, a model, a
// detector setting and an execution budget.
type refRow struct {
	name    string
	m       *ir.Module
	entries []string
	model   memmodel.Model
	races   bool
	// maxExecs is the row's execution budget; budgetRow marks a row cut
	// short on purpose.
	maxExecs  int
	budgetRow bool
	slow      bool
}

// Differential-test budgets. A 5000-step execution bound keeps the
// spinning harnesses cheap without changing any settled verdict.
const (
	refSettleExecs   = 5000
	refUnsettledCap  = 500
	refMaxSteps      = 5000
	refMaxRaceReport = 1024
)

// unsettledRows lists the rows whose reference exploration does not
// finish within refSettleExecs executions; they run to refUnsettledCap
// and are compared as budget-cut rows. The test fails when a listed row
// settles or an unlisted one does not, so the list stays exact.
var unsettledRows = func() map[string]bool {
	rows := make(map[string]bool)
	add := func(prog string, ported []bool, models []memmodel.Model, races []bool) {
		for _, p := range ported {
			for _, model := range models {
				for _, r := range races {
					rows[refRowName(prog, p, model, r)] = true
				}
			}
		}
	}
	both := []bool{false, true}
	models := []memmodel.Model{memmodel.ModelTSO, memmodel.ModelWMM}
	wmm := []memmodel.Model{memmodel.ModelWMM}
	// Spinning harnesses whose interleavings outgrow the budget.
	for _, prog := range []string{"ck_spinlock_cas", "dcl", "iriw", "tas"} {
		add(prog, both, models, both)
	}
	// Ported queues: the seq_cst spin waits multiply the interleavings.
	for _, prog := range []string{"ck_fifo", "ck_ring"} {
		add(prog, []bool{true}, models, both)
	}
	// Detector on: happens-before fingerprints split converging states.
	for _, prog := range []string{"ck_sequence", "lf_hash", "seqlock", "litmus-seqlock"} {
		add(prog, []bool{true}, models, []bool{true})
	}
	add("ck_sequence", []bool{false}, wmm, []bool{true})
	add("cna-lock", []bool{false}, wmm, both)
	return rows
}()

func refRowName(prog string, ported bool, model memmodel.Model, races bool) string {
	state := "unported"
	if ported {
		state = "ported"
	}
	return fmt.Sprintf("%s/%s/%s/races=%t", prog, state, model, races)
}

// slowPrograms are the corpus programs whose settled rows take more
// than a fraction of a second; with the unsettled rows they are
// skipped under -short and the race detector.
var slowPrograms = map[string]bool{
	"ck_fifo": true, "ck_sequence": true, "ck_spinlock_mcs": true, "cna-lock": true,
	"dcl-spin": true, "lf_hash": true,
}

// referenceRows builds every row: each corpus program with a
// model-checking harness and each litmus program of
// TestParallelDeterminism, unported and ported, under TSO and WMM, with
// the detector off and on; plus the deliberately budget-cut rows.
func referenceRows(t *testing.T) []refRow {
	t.Helper()
	type prog struct {
		name    string
		src     string
		entries []string
	}
	var progs []prog
	for _, name := range corpus.Names() {
		if p := corpus.Get(name); len(p.MCEntries) > 0 {
			progs = append(progs, prog{name, p.Source, p.MCEntries})
		}
	}
	for _, p := range determinismPrograms {
		progs = append(progs, prog{"litmus-" + p.name, p.src, p.entries})
	}
	build := func(p prog, ported bool) *ir.Module {
		m := compile(t, p.src)
		if ported {
			if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
				t.Fatalf("port %s: %v", p.name, err)
			}
		}
		return m
	}
	var rows []refRow
	for _, p := range progs {
		for _, ported := range []bool{false, true} {
			m := build(p, ported)
			for _, model := range []memmodel.Model{memmodel.ModelTSO, memmodel.ModelWMM} {
				for _, races := range []bool{false, true} {
					name := refRowName(p.name, ported, model, races)
					r := refRow{
						name: name, m: m, entries: p.entries, model: model, races: races,
						maxExecs: refSettleExecs, slow: slowPrograms[p.name],
					}
					if unsettledRows[name] {
						r.maxExecs, r.slow = refUnsettledCap, true
					}
					rows = append(rows, r)
				}
			}
		}
	}
	for _, name := range []string{"seqlock", "cna-lock"} {
		p := corpus.Get(name)
		m := build(prog{name, p.Source, p.MCEntries}, true)
		for _, budget := range []int{50, 200} {
			for _, races := range []bool{false, true} {
				rows = append(rows, refRow{
					name: fmt.Sprintf("%s/ported/%s/races=%t/budget=%d", name, memmodel.ModelWMM, races, budget),
					m:    m, entries: p.MCEntries, model: memmodel.ModelWMM, races: races,
					maxExecs: budget, budgetRow: true,
				})
			}
		}
	}
	return rows
}

// TestEngineMatchesReference is the differential test of the
// frontier-split engine against the sequential explorer it replaced.
// At Workers 0 and 1 the engine walks the same depth-first search, so
// every statistic matches: verdict, reason, executions, pruned,
// truncated, states, frontier, the violation list and the race-key
// set, and on budget-cut rows the encoded resume token. At 2 and 8
// workers, on rows whose reference settles (fully explored, nothing
// truncated), the verdict, the violations and the race keys match.
func TestEngineMatchesReference(t *testing.T) {
	for _, row := range referenceRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			if row.slow && (testing.Short() || raceEnabled) {
				t.Skip("slow row: skipped under -short and the race detector")
			}
			t.Parallel()
			opts := Options{
				Model: row.model, Entries: row.entries, DetectRaces: row.races,
				MaxExecutions: row.maxExecs, MaxStepsPerExec: refMaxSteps,
				MaxRaceReports: refMaxRaceReport, TimeBudget: time.Hour,
			}
			ref, err := referenceCheck(row.m, opts)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if len(ref.Races) >= refMaxRaceReport {
				t.Fatalf("reference hit the race report cap (%d)", len(ref.Races))
			}
			budgetCut := len(ref.Resume) > 0
			settled := !budgetCut && ref.Truncated == 0
			if !row.budgetRow && budgetCut != unsettledRows[row.name] {
				t.Errorf("reference budget-cut = %t, but the unsettled list says %t (%d executions)",
					budgetCut, unsettledRows[row.name], ref.Executions)
			}
			if row.budgetRow && !budgetCut {
				t.Fatalf("budget row settled in %d executions", ref.Executions)
			}
			if !budgetCut && !settled {
				t.Logf("%d step-truncated executions: compared at one worker only", ref.Truncated)
			}
			wantVios := fmt.Sprintf("%q", ref.Violations[:min(len(ref.Violations), maxReports)])
			wantRaces := fmt.Sprintf("%q", raceKeys(ref))
			for _, j := range []int{0, 1, 2, 8} {
				if j > 1 && !settled {
					continue
				}
				o := opts
				o.Workers = j
				res, err := Check(row.m, o)
				if err != nil {
					t.Fatalf("-j %d: %v", j, err)
				}
				if res.Verdict != ref.Verdict {
					t.Errorf("-j %d: verdict %s, reference %s", j, res.Verdict, ref.Verdict)
				}
				if got := fmt.Sprintf("%q", res.Violations); got != wantVios {
					t.Errorf("-j %d: violations %s, reference %s", j, got, wantVios)
				}
				if got := fmt.Sprintf("%q", raceKeys(res)); got != wantRaces {
					t.Errorf("-j %d: race keys %s, reference %s", j, got, wantRaces)
				}
				if j > 1 {
					continue
				}
				got := fmt.Sprintf("reason=%q executions=%d pruned=%d truncated=%d states=%d frontier=%d",
					res.Reason, res.Executions, res.Pruned, res.Truncated, res.States, res.Frontier)
				want := fmt.Sprintf("reason=%q executions=%d pruned=%d truncated=%d states=%d frontier=%d",
					ref.Reason, ref.Executions, ref.Pruned, ref.Truncated, ref.States, ref.Frontier)
				if got != want {
					t.Errorf("-j %d statistics differ:\n got %s\nwant %s", j, got, want)
				}
				if budgetCut {
					if len(res.Resume) != 1 {
						t.Errorf("-j %d: %d resume tokens, want 1", j, len(res.Resume))
					} else if g, w := res.Resume[0].Encode(), ref.Resume[0].Encode(); g != w {
						t.Errorf("-j %d: resume token\n got %s\nwant %s", j, g, w)
					}
				}
			}
		})
	}
}
