package vm_test

import (
	"testing"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/vm"
)

// splitDFS is a small depth-first exploration controller in the model
// checker's style: a trace of choices replayed up to its prefix, then
// extended with first choices, backtracked from the end.
type splitDFS struct {
	trace  []splitChoice
	pos    int
	prefix int
}

type splitChoice struct{ options, taken int }

func (d *splitDFS) pick(n int) int {
	if d.pos < len(d.trace) {
		d.pos++
		return d.trace[d.pos-1].taken
	}
	d.trace = append(d.trace, splitChoice{options: n})
	d.pos++
	return 0
}

func (d *splitDFS) replaying() bool { return d.pos <= d.prefix }

func (d *splitDFS) backtrack() bool {
	for len(d.trace) > 0 {
		last := &d.trace[len(d.trace)-1]
		if last.taken+1 < last.options {
			last.taken++
			d.prefix, d.pos = len(d.trace), 0
			return true
		}
		d.trace = d.trace[:len(d.trace)-1]
	}
	return false
}

func (d *splitDFS) PickThread(runnable []int) int       { return runnable[d.pick(len(runnable))] }
func (d *splitDFS) PickRead(_ memmodel.Addr, n int) int { return d.pick(n) }
func (d *splitDFS) PickNondet(max int) int              { return d.pick(max) }

// splitStates explores m under WMM the way the model checker does —
// visible-step granularity, pruning on the visited state hash, the race
// detector's fingerprint mixed in when det is set — and checks at every
// state it hashes that the word-wise StateHash and the byte-wise
// OldStateHash split states alike. It returns the number of distinct
// states and whether the exploration finished within maxExecs.
func splitStates(t *testing.T, name string, m *ir.Module, entries []string, det *race.Detector, maxExecs int) (int, bool) {
	t.Helper()
	d := &splitDFS{}
	opts := vm.Options{Model: memmodel.ModelWMM, Entries: entries, Controller: d, MaxSteps: 100_000}
	if det != nil {
		opts.Hook = det
	}
	v, err := vm.New(m, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	newToOld := map[uint64]uint64{}
	oldToNew := map[uint64]uint64{}
	for execs := 0; execs < maxExecs; execs++ {
		if execs > 0 {
			if det != nil {
				det.BeginExec()
			}
			if err := v.Reset(); err != nil {
				t.Fatalf("%s: reset: %v", name, err)
			}
		}
		for !v.Halted() {
			run := v.Runnable()
			if len(run) == 0 {
				break
			}
			if err := v.StepThread(run[d.pick(len(run))]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v.Halted() || d.replaying() {
				continue
			}
			hn, ho := v.StateHash(), v.OldStateHash()
			if det != nil {
				f := det.Fingerprint()
				hn, ho = hn*1099511628211^f, ho*1099511628211^f
			}
			if o, ok := newToOld[hn]; ok {
				if o != ho {
					t.Fatalf("%s: execution %d: one new hash %#x for two old hashes %#x and %#x", name, execs, hn, o, ho)
				}
				break // visited: prune, as the model checker does
			}
			if n, ok := oldToNew[ho]; ok && n != hn {
				t.Fatalf("%s: execution %d: one old hash %#x for two new hashes %#x and %#x", name, execs, ho, n, hn)
			}
			newToOld[hn], oldToNew[ho] = ho, hn
		}
		if !d.backtrack() {
			return len(newToOld), true
		}
	}
	return len(newToOld), false
}

// TestStateHashSplitsLikeOld: over every state the corpus explorations
// visit — each corpus program with model-checking entries, unported and
// ported, under WMM, plus race mode on the programs the conformance
// suite checks for races — the word-wise state hash equates exactly the
// states the byte-wise FNV hash it replaced equates. Each exploration
// runs to its end or to 3,000 executions (cna-lock, dcl, iriw, tas and
// the CK spinlocks reach the budget); short and race-detector runs take
// the first 300 executions of each.
func TestStateHashSplitsLikeOld(t *testing.T) {
	maxExecs := 3_000
	if testing.Short() || raceEnabled {
		maxExecs = 300
	}
	raceRows := map[string]bool{"iriw": true, "seqlock-gap": true, "cna-lock": true}
	for _, p := range corpus.All() {
		if len(p.MCEntries) == 0 {
			continue
		}
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ported, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, err := atomig.Port(ported, atomig.DefaultOptions()); err != nil {
			t.Fatalf("%s: port: %v", p.Name, err)
		}
		for _, c := range []struct {
			tag string
			m   *ir.Module
		}{{"", m}, {" (ported)", ported}} {
			n, done := splitStates(t, p.Name+c.tag, c.m, p.MCEntries, nil, maxExecs)
			if raceRows[p.Name] {
				det := race.New(memmodel.ModelWMM, race.Options{})
				rn, rdone := splitStates(t, p.Name+c.tag+" race", c.m, p.MCEntries, det, maxExecs)
				n, done = n+rn, done && rdone
			}
			t.Logf("%s%s: %d states, explored fully: %t", p.Name, c.tag, n, done)
			if n == 0 {
				t.Errorf("%s%s: no states hashed", p.Name, c.tag)
			}
		}
	}
}
