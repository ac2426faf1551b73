package atomig

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/appgen"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
)

// walkFenceAnchors is optFenceAnchors as it was before the fence
// search read only the shared accesses: it walks every instruction of
// f, pairs the i-th memory access with accs[i] (every memory access,
// in walk order) and reads the adjacent-fence check on f itself. It is
// kept unchanged as the reference the shared-access search is checked
// against.
func walkFenceAnchors(f *ir.Func, accs []alias.Access, loops []optLoopCtl, optLocs map[alias.Loc]bool, am *alias.Map) (a fenceAnchors) {
	if len(loops) == 0 && len(optLocs) == 0 {
		return a
	}
	isSCFence := func(in *ir.Instr) bool { return in.Op == ir.OpFence && in.Ord == ir.SeqCst }
	ai := 0
	for _, b := range f.Blocks {
		// Only a read inside one of f's optimistic loops can need a fence
		// before it, so only such a read's location is canonicalized.
		inLoop := false
		for _, ol := range loops {
			inLoop = inLoop || ol.loop.Blocks[b]
		}
		for i, in := range b.Instrs {
			if !in.IsMemAccess() {
				continue
			}
			loc := accs[ai].Primary
			ai++
			fenced := false
			if inLoop && in.Reads() {
				canon := am.Canon(loc)
				for _, ol := range loops {
					if !ol.loop.Blocks[b] || !ol.ctl[canon] {
						continue
					}
					fenced = true
					if i == 0 || !isSCFence(b.Instrs[i-1]) {
						a.before = append(a.before, in)
					}
					break
				}
			}
			if in.Writes() && !fenced && optLocs[am.Canon(loc)] {
				if i+1 >= len(b.Instrs) || !isSCFence(b.Instrs[i+1]) {
					a.after = append(a.after, in)
				}
			}
		}
	}
	return a
}

// allAccesses returns every memory access of f with its descriptors,
// the alias contributions as they were before local and unknown
// descriptors were dropped.
func allAccesses(f *ir.Func) []alias.Access {
	var out []alias.Access
	pos := 0
	f.Instrs(func(in *ir.Instr) {
		pos++
		if in.IsMemAccess() {
			primary, extras := alias.Reprs(in.Addr())
			out = append(out, alias.Access{In: in, Pos: pos, Primary: primary, Extras: extras})
		}
	})
	return out
}

// fenceInputs is what the fence pass reads besides the accesses: the
// alias map, each function's optimistic loops and the canonical
// optimistic-control locations, built as runPipeline builds them.
type fenceInputs struct {
	am       *alias.Map
	byFn     map[*ir.Func][]optLoopCtl
	canonOpt map[alias.Loc]bool
}

func newFenceInputs(m *ir.Module, workers int, det []funcDetect, accs [][]alias.Access) fenceInputs {
	optLocs := make(map[alias.Loc]bool)
	var optLoops []*analysis.SpinloopInfo
	for fi := range det {
		for _, info := range det[fi].spin {
			if info.Optimistic {
				optLoops = append(optLoops, info)
				for _, loc := range info.ControlLocs {
					optLocs[loc] = true
				}
			}
		}
	}
	in := fenceInputs{
		am: alias.BuildMapFromAccesses(m, workers, func(fi int, _ *ir.Func) []alias.Access {
			return accs[fi]
		}),
		byFn:     make(map[*ir.Func][]optLoopCtl),
		canonOpt: make(map[alias.Loc]bool),
	}
	for loc := range optLocs {
		in.canonOpt[in.am.Canon(loc)] = true
	}
	for _, info := range optLoops {
		ctl := make(map[alias.Loc]bool, len(info.ControlLocs))
		for _, loc := range info.ControlLocs {
			ctl[in.am.Canon(loc)] = true
		}
		in.byFn[info.Fn] = append(in.byFn[info.Fn], optLoopCtl{loop: info.Loop, ctl: ctl})
	}
	return in
}

// TestFenceAnchorsMatchWalk checks the fence search over shared
// accesses against the instruction walk it replaced, at 1 and 4
// workers, on the corpus, the alias fuzz seeds and a 20k-line generated
// module, each inlined as a session inlines it and then ported
// portDepth times over, each port taking the one before as its input
// (where every anchor already has its fence). The reference reads all
// accesses and a map built from them. Each function is checked as the
// pipeline owns it, and once more after a write has copied it late, as
// a sticky buddy does, with the reference walking the copy.
func TestFenceAnchorsMatchWalk(t *testing.T) {
	const portDepth = 3
	modules := map[string]*ir.Module{}
	compile := func(name, src string) *ir.Module {
		res, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		return snapshotOf(t, res.Module)
	}
	for _, p := range corpus.All() {
		modules["corpus/"+p.Name] = compile(p.Name+".c", p.Source)
	}
	modules["sc-writer-seqlock"] = compile("sc-writer-seqlock.c", scWriterSeqlock)
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("anchors", 20000, 5))
	modules["large-20k"] = compile("anchors.c", src)
	for i, text := range fuzzSeeds(t, "../alias/testdata/fuzz/FuzzAliasExplore") {
		if m, err := ir.ParseModule(text); err == nil && ir.Verify(m) == nil {
			modules["alias-seed/"+strconv.Itoa(i)] = m
		}
	}
	opts := DefaultOptions()
	opts.Inline = false
	sources := make([]string, 0, len(modules))
	for name := range modules {
		sources = append(sources, name)
	}
	for _, name := range sources {
		m := modules[name]
		for range portDepth {
			ported, _, err := PortClone(m, opts)
			if err != nil {
				t.Fatalf("port %s: %v", name, err)
			}
			name, m = name+"/ported", ported
			modules[name] = m
		}
	}
	names := make([]string, 0, len(modules))
	for name := range modules {
		names = append(names, name)
	}
	sort.Strings(names)
	var anchors, late int
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				n, l := matchFenceWalk(t, w, modules[name], opts)
				anchors += n
				late += l
			}
		})
	}
	t.Logf("%d anchors, %d of them in late copies", anchors, late)
	if anchors == 0 || late == 0 {
		t.Errorf("%d anchors found, %d in late copies: the inputs exercise neither search", anchors, late)
	}
}

// matchFenceWalk compares the two searches on one module and returns
// how many anchors they found, and how many of those in late copies.
func matchFenceWalk(t *testing.T, workers int, src *ir.Module, opts Options) (anchors, late int) {
	t.Helper()
	m := mustClone(t, src)
	det := make([]funcDetect, len(m.Funcs))
	accs := make([][]alias.Access, len(m.Funcs))
	all := make([][]alias.Access, len(m.Funcs))
	for fi, f := range m.Funcs {
		det[fi], accs[fi] = detectFunc(f, opts, nil)
		all[fi] = allAccesses(f)
	}
	got, want := newFenceInputs(m, workers, det, accs), newFenceInputs(m, workers, det, all)
	same := func(what string, f *ir.Func, a, b fenceAnchors) int {
		if !sameInstrList(a.before, b.before) || !sameInstrList(a.after, b.after) {
			t.Fatalf("workers=%d: @%s %s: anchors %d before, %d after; the walk finds %d before, %d after",
				workers, f.Name, what, len(a.before), len(a.after), len(b.before), len(b.after))
		}
		return len(a.before) + len(a.after)
	}

	owned := newOwner(m, false)
	for fi, f := range m.Funcs {
		anchors += same("owned", f,
			optFenceAnchors(accs[fi], got.byFn[f], got.canonOpt, got.am, owned),
			walkFenceAnchors(f, all[fi], want.byFn[f], want.canonOpt, want.am))
	}

	// A port of m that shares its functions: a write copies every
	// function without optimistic loops late.
	d := m.Derive(m.Funcs)
	o := newOwner(d, true)
	for fi, f := range m.Funcs {
		if len(accs[fi]) > 0 && got.byFn[f] == nil {
			o.write(accs[fi][0].In)
		}
	}
	for fi, f := range d.Funcs {
		if f == m.Funcs[fi] {
			continue
		}
		late += same("copied late", f,
			optFenceAnchors(accs[fi], got.byFn[f], got.canonOpt, got.am, o),
			walkFenceAnchors(f, all[fi], want.byFn[f], want.canonOpt, want.am))
	}
	return anchors, late
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
