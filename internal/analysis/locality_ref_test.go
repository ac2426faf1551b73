package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/appgen"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
)

// refProv and refLocality are the map-based locality analysis the
// bitset Locality replaced, kept as the reference of
// TestLocalityMatchesReference and FuzzLocality. Their one departure
// from the original is the xchg escape rule: an atomicrmw xchg stores
// its operand like a store does, so it escapes local addresses into
// escaped local memory as well as into external memory.
type refProv struct {
	sites    map[*ir.Instr]bool
	external bool
}

func (p *refProv) merge(o *refProv) bool {
	changed := false
	if o.external && !p.external {
		p.external = true
		changed = true
	}
	for s := range o.sites {
		if !p.sites[s] {
			if p.sites == nil {
				p.sites = make(map[*ir.Instr]bool)
			}
			p.sites[s] = true
			changed = true
		}
	}
	return changed
}

var refExternal = &refProv{external: true}
var refEmpty = &refProv{}

type refLocality struct {
	provs   map[*ir.Instr]*refProv
	escaped map[*ir.Instr]bool
	stores  []*ir.Instr
}

func analyzeRefLocality(f *ir.Func) *refLocality {
	l := &refLocality{
		provs:   make(map[*ir.Instr]*refProv),
		escaped: make(map[*ir.Instr]bool),
	}
	var instrs []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		instrs = append(instrs, in)
		if in.Writes() {
			l.stores = append(l.stores, in)
		}
	})
	for changed := true; changed; {
		changed = false
		for _, in := range instrs {
			if l.update(in) {
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, in := range instrs {
			if l.updateEscape(in) {
				changed = true
			}
		}
	}
	return l
}

func (l *refLocality) valueProv(v ir.Value) *refProv {
	switch x := v.(type) {
	case *ir.ConstInt:
		return refEmpty
	case *ir.Global:
		return refExternal
	case *ir.Param:
		return refExternal
	case *ir.FuncRef:
		return refEmpty
	case *ir.Instr:
		if p, ok := l.provs[x]; ok {
			return p
		}
		return refEmpty
	}
	return refExternal
}

func (l *refLocality) update(in *ir.Instr) bool {
	p := l.provs[in]
	if p == nil {
		p = &refProv{}
		l.provs[in] = p
	}
	switch in.Op {
	case ir.OpAlloca:
		return p.merge(&refProv{sites: map[*ir.Instr]bool{in: true}})
	case ir.OpCall:
		if in.Callee == "malloc" {
			return p.merge(&refProv{sites: map[*ir.Instr]bool{in: true}})
		}
		if ir.IsPtr(in.Type()) {
			return p.merge(refExternal)
		}
		return false
	case ir.OpGEP:
		return p.merge(l.valueProv(in.Args[0]))
	case ir.OpBin:
		changed := p.merge(l.valueProv(in.Args[0]))
		if p.merge(l.valueProv(in.Args[1])) {
			changed = true
		}
		return changed
	case ir.OpLoad, ir.OpCmpXchg, ir.OpRMW:
		addrProv := l.valueProv(in.Args[0])
		changed := false
		if addrProv.external {
			changed = p.merge(refExternal)
		}
		if len(addrProv.sites) == 0 {
			return changed
		}
		for _, st := range l.stores {
			if !refIntersect(addrProv, l.valueProv(st.Args[0])) {
				continue
			}
			if v := refStoredValue(st); v != nil {
				if p.merge(l.valueProv(v)) {
					changed = true
				}
			}
		}
		return changed
	}
	return false
}

func refStoredValue(st *ir.Instr) ir.Value {
	switch st.Op {
	case ir.OpStore:
		return st.Args[1]
	case ir.OpCmpXchg:
		return st.Args[2]
	case ir.OpRMW:
		if st.RMW == ir.RMWXchg {
			return st.Args[1]
		}
	}
	return nil
}

func refIntersect(a, b *refProv) bool {
	if len(a.sites) > len(b.sites) {
		a, b = b, a
	}
	for s := range a.sites {
		if b.sites[s] {
			return true
		}
	}
	return false
}

func (l *refLocality) escapeSites(p *refProv) bool {
	changed := false
	for s := range p.sites {
		if !l.escaped[s] {
			l.escaped[s] = true
			changed = true
		}
	}
	return changed
}

func (l *refLocality) updateEscape(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCmpXchg, ir.OpRMW:
		v := refStoredValue(in)
		if v == nil {
			return false
		}
		vp := l.valueProv(v)
		if len(vp.sites) == 0 {
			return false
		}
		ap := l.valueProv(in.Args[0])
		target := ap.external
		for s := range ap.sites {
			if l.escaped[s] {
				target = true
			}
		}
		if target {
			return l.escapeSites(vp)
		}
		return false
	case ir.OpCall:
		changed := false
		for _, a := range in.Args {
			if l.escapeSites(l.valueProv(a)) {
				changed = true
			}
		}
		return changed
	case ir.OpRet:
		if len(in.Args) == 1 {
			return l.escapeSites(l.valueProv(in.Args[0]))
		}
	}
	return false
}

func (l *refLocality) NonLocal(addr ir.Value) bool {
	p := l.valueProv(addr)
	if p.external {
		return true
	}
	if len(p.sites) == 0 {
		_, isConst := addr.(*ir.ConstInt)
		return !isConst
	}
	for s := range p.sites {
		if l.escaped[s] {
			return true
		}
	}
	return false
}

func (l *refLocality) LocalStoresTo(addr ir.Value) []*ir.Instr {
	ap := l.valueProv(addr)
	if len(ap.sites) == 0 {
		return nil
	}
	var out []*ir.Instr
	for _, st := range l.stores {
		if refIntersect(ap, l.valueProv(st.Args[0])) {
			out = append(out, st)
		}
	}
	return out
}

func (l *refLocality) Escaped(site *ir.Instr) bool { return l.escaped[site] }

// diffLocality asks Locality and the reference every question about f:
// NonLocal and LocalStoresTo (same stores, same order) for every
// operand of every instruction, and Escaped for every instruction. It
// returns the number of queries and the first disagreement, or "".
func diffLocality(f *ir.Func) (queries int, diff string) {
	got, want := AnalyzeLocality(f), analyzeRefLocality(f)
	f.Instrs(func(in *ir.Instr) {
		if diff != "" {
			return
		}
		for _, a := range in.Args {
			queries += 2
			if g, w := got.NonLocal(a), want.NonLocal(a); g != w {
				diff = fmt.Sprintf("@%s: NonLocal(%s) in %q = %v, reference %v", f.Name, a.Operand(), in, g, w)
				return
			}
			if g, w := got.LocalStoresTo(a), want.LocalStoresTo(a); !sameInstrList(g, w) {
				diff = fmt.Sprintf("@%s: LocalStoresTo(%s) in %q = %v, reference %v", f.Name, a.Operand(), in, g, w)
				return
			}
		}
		queries++
		if g, w := got.Escaped(in), want.Escaped(in); g != w {
			diff = fmt.Sprintf("@%s: Escaped(%q) = %v, reference %v", f.Name, in, g, w)
		}
	})
	return queries, diff
}

func sameInstrList(a, b []*ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffModule runs diffLocality over every function of m, before and
// after inlining (Inline rewrites m).
func diffModule(t *testing.T, name string, m *ir.Module) int {
	t.Helper()
	queries := 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			Inline(m)
		}
		for _, f := range m.Funcs {
			q, diff := diffLocality(f)
			queries += q
			if diff != "" {
				t.Fatalf("%s (inlined=%v): %s", name, pass == 1, diff)
			}
		}
	}
	return queries
}

// wideLocalityAIR is a function with 130 allocation sites, so its
// provenance rows span three words. Site 63 escapes to a global and
// site 127 through a call; site 128 escapes into 127 through the
// pointer slot 64. The loop reloads slot 129, whose one store's value
// is computed after the load in layout order, so a second sweep is
// needed to learn that the reloaded pointer points at site 65, which
// stays local.
func wideLocalityAIR() string {
	var b strings.Builder
	b.WriteString("; module wide\n@g = global ptr i64\n\ndefine void @wide() {\nentry:\n")
	for i := 0; i < 130; i++ {
		fmt.Fprintf(&b, "  %%t%d = alloca i64\n", i)
	}
	b.WriteString("  store %t63, @g\n" +
		"  call void @free(%t127)\n" +
		"  store %t127, %t64\n" +
		"  %t200 = load ptr i64, %t64\n" +
		"  store %t128, %t200\n" +
		"  store 5, %t65\n" +
		"  br label %loop\n" +
		"loop:\n" +
		"  %t201 = load ptr i64, %t129\n" +
		"  %t202 = load i64, %t201\n" +
		"  %t203 = add %t65, 8\n" +
		"  store %t203, %t129\n" +
		"  %t204 = load i64, %t128\n" +
		"  %t205 = icmp eq %t202, %t204\n" +
		"  br %t205, label %loop, label %done\n" +
		"done:\n" +
		"  store %t201, %t1\n" +
		"  ret void\n}\n")
	return b.String()
}

// fuzzCorpusInputs returns the inputs of a checked-in Go fuzz corpus
// directory (one quoted string per file).
func fuzzCorpusInputs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(data), "\nstring(")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, s)
	}
	return out
}

const xchgEscapeSrc = `int **gp;
void waiter(void) {
  int *box;
  int flag = 0;
  gp = &box;
  __xchg(&box, &flag);
  while (flag == 0) { }
}
`

// TestLocalityMatchesReference checks the bitset Locality against the
// map-based reference on every corpus program, four generated 20k-line
// modules, the frontend's fuzz corpus and a function whose rows span
// three words, before and after inlining.
func TestLocalityMatchesReference(t *testing.T) {
	queries := 0
	diffSource := func(name, src string) {
		res, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries += diffModule(t, name, res.Module)
	}
	for _, p := range corpus.All() {
		diffSource(p.Name, p.Source)
		if p.ExpertSource != "" {
			diffSource(p.Name+"-expert", p.ExpertSource)
		}
	}
	diffSource("xchg-escape", xchgEscapeSrc)
	for i, src := range fuzzCorpusInputs(t, "../minic/testdata/fuzz/FuzzCompile") {
		// That corpus holds malformed sources too; only accepted ones count.
		if res, err := minic.Compile("fuzz", src); err == nil {
			queries += diffModule(t, fmt.Sprintf("FuzzCompile#%d", i), res.Module)
		}
	}
	wide, err := ir.ParseModule(wideLocalityAIR())
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(wide); err != nil {
		t.Fatal(err)
	}
	queries += diffModule(t, "wide", wide)
	sloc := 20000
	if testing.Short() {
		sloc = 4000
	}
	for seed := int64(0); seed < 4; seed++ {
		src, _ := appgen.GenerateLarge(appgen.LargeSpec("diff.c", sloc, seed))
		diffSource(fmt.Sprintf("LargeSpec(%d, seed %d)", sloc, seed), src)
	}
	t.Logf("%d queries, 0 differences", queries)
}

// TestLocalityWideRows pins the answers on the three-word function
// itself, so a bug shared by Locality and the reference still shows.
func TestLocalityWideRows(t *testing.T) {
	m, err := ir.ParseModule(wideLocalityAIR())
	if err != nil {
		t.Fatal(err)
	}
	loc := AnalyzeLocality(m.Func("wide"))
	byID := map[int]*ir.Instr{}
	m.Func("wide").Instrs(func(in *ir.Instr) { byID[in.ID] = in })
	for site, want := range map[int]bool{62: false, 63: true, 64: false, 65: false, 127: true, 128: true, 129: false} {
		if got := loc.Escaped(byID[site]); got != want {
			t.Errorf("Escaped(site %d) = %v, want %v", site, got, want)
		}
	}
	for id, want := range map[int]bool{200: true, 201: false, 128: true, 65: false} {
		if got := loc.NonLocal(byID[id]); got != want {
			t.Errorf("NonLocal(%%t%d) = %v, want %v", id, got, want)
		}
	}
	for id, want := range map[int]string{129: "store %t203, %t129", 201: "store 5, %t65"} {
		if got := loc.LocalStoresTo(byID[id]); len(got) != 1 || got[0].String() != want {
			t.Errorf("LocalStoresTo(%%t%d) = %v, want [%s]", id, got, want)
		}
	}
}

// FuzzLocality parses arbitrary AIR and compares every Locality answer
// against the map-based reference. AIR reaches shapes MiniC does not
// emit: sparse register numbers, malloc results stored through
// parameters, operands defined after their use.
func FuzzLocality(f *testing.F) {
	f.Add(wideLocalityAIR())
	for _, src := range []string{xchgEscapeSrc, corpus.Get("seqlock").Source, corpus.Get("cna-lock").Source} {
		res, err := minic.Compile("seed", src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(res.Module.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 16<<10 {
			t.Skip("oversized input")
		}
		m, err := ir.ParseModule(text)
		if err != nil || ir.Verify(m) != nil {
			return
		}
		for _, fn := range m.Funcs {
			if _, diff := diffLocality(fn); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}
