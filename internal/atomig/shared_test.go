package atomig

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/appgen"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
)

// snapshotOf numbers and inlines m as the serving daemon's session does
// with a module it loads: the result ports with inlining off.
func snapshotOf(t *testing.T, m *ir.Module) *ir.Module {
	t.Helper()
	for _, f := range m.Funcs {
		f.NumberUnnamed()
	}
	snap := mustClone(t, m)
	analysis.Inline(snap)
	if err := ir.Verify(snap); err != nil {
		t.Fatalf("inlined module invalid: %v", err)
	}
	return snap
}

// fuzzSeeds returns the committed seed inputs of a fuzz target that are
// Go string or byte-slice literals.
func fuzzSeeds(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz seeds: %v", err)
	}
	var out []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			lit, ok := strings.CutPrefix(line, "string(")
			if !ok {
				lit, ok = strings.CutPrefix(line, "[]byte(")
			}
			if !ok {
				continue
			}
			if s, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// scWriterSeqlock is Figure 6's seqlock with a writer whose counter
// accesses are seq_cst already: nothing in the writer is upgraded or
// marked, so only the fences after its counter stores write it, and a
// shared port copies it at the fence pass.
const scWriterSeqlock = `
int seq;
int msg;

void writer(void) {
  __store_sc(&seq, __load_sc(&seq) + 1);
  msg = 7;
  __store_sc(&seq, __load_sc(&seq) + 1);
}

void reader(void) {
  int s;
  int data;
  do {
    s = seq;
    data = msg;
  } while (s % 2 != 0 || s != seq);
  if (s == 2) { assert(data == 7); }
}
`

// sharedInputs returns the modules the shared port is checked on, by
// name: every corpus program, a seqlock whose writer only the fence
// pass writes, and the 8k-line serve-edit module, each inlined as the
// session inlines, and every committed fuzz seed that parses (AIR) or
// compiles (MiniC) to a valid module.
func sharedInputs(t *testing.T) map[string]*ir.Module {
	t.Helper()
	out := make(map[string]*ir.Module)
	compile := func(name, src string) *ir.Module {
		res, err := minic.Compile(name, src)
		if err != nil {
			return nil
		}
		return res.Module
	}
	for _, p := range corpus.All() {
		m := compile(p.Name+".c", p.Source)
		if m == nil {
			t.Fatalf("corpus program %s does not compile", p.Name)
		}
		out["corpus/"+p.Name] = snapshotOf(t, m)
	}
	out["sc-writer-seqlock"] = snapshotOf(t, compile("sc-writer-seqlock.c", scWriterSeqlock))
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("serve-edit", 8000, 7))
	out["serve-edit"] = snapshotOf(t, compile("serve-edit.c", src))
	for i, text := range fuzzSeeds(t, "../ir/testdata/fuzz/FuzzParseRoundTrip") {
		if m, err := ir.ParseModule(text); err == nil && ir.Verify(m) == nil && len(m.Funcs) > 0 {
			out["air-seed/"+strconv.Itoa(i)] = m
		}
	}
	for i, text := range fuzzSeeds(t, "../minic/testdata/fuzz/FuzzCompile") {
		if m := compile("seed.c", text); m != nil && len(m.Funcs) > 0 {
			out["minic-seed/"+strconv.Itoa(i)] = snapshotOf(t, m)
		}
	}
	return out
}

// sameReport compares two reports but for the wall-clock duration and
// the copy count, which only PortShared sets.
func sameReport(a, b *Report) bool {
	x, y := *a, *b
	x.Duration, y.Duration = 0, 0
	x.FunctionsCopied, y.FunctionsCopied = 0, 0
	return reflect.DeepEqual(x, y)
}

// TestPortSharedMatchesPortClone is the differential test of the shared
// port against the whole-clone port it replaces in the daemon: with no
// summary slots, empty, filled, filled but one (the slot an edit
// empties), and slots that fit no function, PortShared gives
// PortClone's text and report, never writes its source, and shares
// every function it does not copy. With filled slots it copies only
// what it writes: a function whose text the port leaves unchanged and
// whose summary records no write stays the source's own.
func TestPortSharedMatchesPortClone(t *testing.T) {
	for name, src := range sharedInputs(t) {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Inline = false
			before := src.String()
			var filled []*FuncSummary
			cases := []struct {
				name  string
				slots func() []*FuncSummary
			}{
				{"no slots", func() []*FuncSummary { return nil }},
				{"empty slots", func() []*FuncSummary { return make([]*FuncSummary, len(src.Funcs)) }},
				{"filled slots", func() []*FuncSummary { return append([]*FuncSummary(nil), filled...) }},
				{"one slot emptied", func() []*FuncSummary {
					s := append([]*FuncSummary(nil), filled...)
					s[len(s)/2] = nil
					return s
				}},
				{"slots that do not fit", func() []*FuncSummary {
					s := make([]*FuncSummary, len(src.Funcs))
					for i := range s {
						s[i] = &FuncSummary{accesses: []accessSummary{{pos: 1 << 30}}}
					}
					return s
				}},
			}
			for _, c := range cases {
				refOpts, sharedOpts := opts, opts
				refOpts.Summaries, sharedOpts.Summaries = c.slots(), c.slots()
				ref, refRep, err := PortClone(src, refOpts)
				if err != nil {
					t.Fatalf("%s: PortClone: %v", c.name, err)
				}
				got, rep, err := PortShared(src, sharedOpts)
				if err != nil {
					t.Fatalf("%s: PortShared: %v", c.name, err)
				}
				if got.String() != ref.String() {
					t.Fatalf("%s: PortShared's module differs from PortClone's", c.name)
				}
				if !sameReport(rep, refRep) {
					t.Errorf("%s: report %+v, PortClone's %+v", c.name, *rep, *refRep)
				}
				if src.String() != before {
					t.Fatalf("%s: PortShared wrote its source", c.name)
				}
				copied := 0
				for i, f := range got.Funcs {
					if f != src.Funcs[i] {
						copied++
						continue
					}
					if ir.FuncString(ref.Funcs[i]) != ir.FuncString(f) {
						t.Errorf("%s: @%s is the source's, yet the port changes it", c.name, f.Name)
					}
				}
				if copied != rep.FunctionsCopied {
					t.Errorf("%s: %d functions differ from the source's, the report says %d copied", c.name, copied, rep.FunctionsCopied)
				}
				if c.name == "filled slots" || c.name == "one slot emptied" {
					for i, sum := range c.slots() {
						f := got.Funcs[i]
						if f != src.Funcs[i] && sum != nil && !sum.writes() && ir.FuncString(f) == ir.FuncString(src.Funcs[i]) {
							t.Errorf("%s: @%s was copied, but the port does not write it", c.name, f.Name)
						}
					}
				}
				if c.name == "empty slots" {
					filled = sharedOpts.Summaries
					if !reflect.DeepEqual(filled, refOpts.Summaries) {
						t.Errorf("%s: PortShared filled other summaries than PortClone", c.name)
					}
				}
			}
		})
	}
}
