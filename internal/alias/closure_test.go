package alias_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
)

// rerootModule makes a later union re-root an earlier class. @fa's
// store spells its cell %cell:0.[] and, with the index trimmed,
// %cell:0, so the first union roots the class {%cell:0, %cell:0.[]} at
// %cell:0. @fb's load spells the array field's base cell %box:0.0 and
// %cell:0 only, so the second union re-roots that class at %box:0.0
// without touching %cell:0.[]. The same text is checked in under
// testdata/fuzz/FuzzAliasExplore/reroot_class.
const rerootModule = "; module reroot\n%cell = type {[4 x i64] slots, i64 pad}\n%box = type {%cell c, i64 pad}\n@one = global %cell\n@two = global %box\n\n" +
	"define void @fa(i64 %i) {\nentry:\n  %t0 = getelementptr %cell, @one, field 0, index %i\n  store 1, %t0\n  ret void\n}\n\n" +
	"define void @fb() {\nentry:\n  %t0 = getelementptr %box, @two, field 0, field 0\n  %t1 = load i64, %t0\n  ret void\n}\n"

// closure is the reference the alias map is checked against. It takes
// every access's descriptor from LocOf and the shared accesses'
// descriptors from PrepareFunc, and shares nothing else with the map's
// build: the classes are the connected components, found by
// breadth-first search, of the graph that joins every shared primary
// descriptor to its extras.
type closure struct {
	locs map[*ir.Instr]alias.Loc
	// root maps every descriptor of the graph to its component's
	// smallest member.
	root map[alias.Loc]alias.Loc
	// classes maps each root to its component's accesses in module
	// order.
	classes map[alias.Loc][]*ir.Instr
	shared  []alias.Loc
	merges  int64
}

// locBefore orders descriptors by kind, then name.
func locBefore(a, b alias.Loc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Name < b.Name
}

func newClosure(m *ir.Module) *closure {
	c := &closure{
		locs:    make(map[*ir.Instr]alias.Loc),
		root:    make(map[alias.Loc]alias.Loc),
		classes: make(map[alias.Loc][]*ir.Instr),
	}
	adj := make(map[alias.Loc][]alias.Loc)
	var nodes []alias.Loc
	node := func(l alias.Loc) {
		if _, ok := adj[l]; !ok {
			adj[l] = nil
			nodes = append(nodes, l)
		}
	}
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.IsMemAccess() {
			c.locs[in] = alias.LocOf(in.Addr())
		}
	})
	var shared []alias.Access
	for _, f := range m.Funcs {
		for _, a := range alias.PrepareFunc(f) {
			if !a.Primary.Shared() {
				continue
			}
			shared = append(shared, a)
			node(a.Primary)
			for _, e := range a.Extras {
				node(e)
				adj[a.Primary] = append(adj[a.Primary], e)
				adj[e] = append(adj[e], a.Primary)
			}
		}
	}
	for _, start := range nodes {
		if _, done := c.root[start]; done {
			continue
		}
		comp := []alias.Loc{start}
		in := map[alias.Loc]bool{start: true}
		for i := 0; i < len(comp); i++ {
			for _, n := range adj[comp[i]] {
				if !in[n] {
					in[n] = true
					comp = append(comp, n)
				}
			}
		}
		least := start
		for _, l := range comp {
			if locBefore(l, least) {
				least = l
			}
		}
		for _, l := range comp {
			c.root[l] = least
		}
		c.merges += int64(len(comp) - 1)
	}
	seen := make(map[alias.Loc]bool)
	for _, a := range shared {
		rt := c.root[a.Primary]
		c.classes[rt] = append(c.classes[rt], a.In)
		if !seen[a.Primary] {
			seen[a.Primary] = true
			c.shared = append(c.shared, a.Primary)
		}
	}
	sort.Slice(c.shared, func(i, j int) bool { return locBefore(c.shared[i], c.shared[j]) })
	return c
}

// explore is Map.Explore's contract: the classes of the seeds'
// descriptors in first-seed order, each in module order.
func (c *closure) explore(seeds []*ir.Instr) []*ir.Instr {
	done := make(map[alias.Loc]bool)
	var out []*ir.Instr
	for _, s := range seeds {
		l := c.locs[s]
		if !l.Shared() || done[c.root[l]] {
			continue
		}
		done[c.root[l]] = true
		out = append(out, c.classes[c.root[l]]...)
	}
	return out
}

// TestMapMatchesClosure checks the alias map against the closure
// reference at 1 and 4 workers: every access's descriptor, every
// descriptor's canonical representative and buddy list, the merge
// count, the shared descriptors, and exploration from every access in
// module order, in reverse, and from every other access.
func TestMapMatchesClosure(t *testing.T) {
	modules := testModules(t)
	names := make([]string, 0, len(modules))
	for name := range modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := modules[name]
		t.Run(name, func(t *testing.T) {
			want := newClosure(m)
			if m.Name == "reroot" {
				rerooted := alias.Loc{Kind: alias.LocField, Name: "cell:0.[]"}
				if rt := want.root[rerooted]; rt.Name != "box:0.0" || want.merges != 2 {
					t.Fatalf("reroot module no longer re-roots: root(%s) = %s, %d merges", rerooted, rt, want.merges)
				}
			}
			for _, w := range []int{1, 4} {
				matchClosure(t, w, m, want)
			}
		})
	}
}

// testModules are the inputs the alias map is checked on, by name: the
// corpus programs, the parseable fuzz seeds, the re-rooting module and
// a 20k-line generated module.
func testModules(t *testing.T) map[string]*ir.Module {
	t.Helper()
	modules := map[string]*ir.Module{}
	for _, p := range corpus.All() {
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		modules["corpus/"+p.Name] = m
	}
	for i, text := range append(fuzzSeedModules(), rerootModule) {
		m, err := ir.ParseModule(text)
		if err != nil || ir.Verify(m) != nil {
			continue
		}
		modules[fmt.Sprintf("air/%d-%s", i, m.Name)] = m
	}
	spec := appgen.LargeSpec("closure", 20000, 5)
	src, _ := appgen.GenerateLarge(spec)
	res, err := minic.Compile(spec.Name+".c", src)
	if err != nil {
		t.Fatalf("compile %s: %v", spec.Name, err)
	}
	modules["large-20k"] = res.Module
	return modules
}

func matchClosure(t *testing.T, workers int, m *ir.Module, want *closure) {
	t.Helper()
	am := alias.BuildMapFromAccesses(m, workers, nil)
	var accesses []*ir.Instr
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.IsMemAccess() {
			accesses = append(accesses, in)
		}
	})
	for _, in := range accesses {
		if got := am.Loc(in); got != want.locs[in] {
			t.Fatalf("workers=%d: Loc(%s) = %s, want %s", workers, in, got, want.locs[in])
		}
	}
	for l, rt := range want.root {
		if got := am.Canon(l); got != rt {
			t.Fatalf("workers=%d: Canon(%s) = %s, want %s", workers, l, got, rt)
		}
		if got := am.Buddies(l); !sameInstrs(got, want.classes[rt]) {
			t.Fatalf("workers=%d: Buddies(%s) has %d accesses, want %d in module order", workers, l, len(got), len(want.classes[rt]))
		}
	}
	stray := alias.Loc{Kind: alias.LocGlobal, Name: "not in the module"}
	if got := am.Canon(stray); got != stray {
		t.Fatalf("workers=%d: Canon(%s) = %s, want itself", workers, stray, got)
	}
	if got := am.Buddies(alias.Loc{Kind: alias.LocLocal}); got != nil {
		t.Fatalf("workers=%d: a local descriptor has %d buddies", workers, len(got))
	}
	if got := am.Merges(); got != want.merges {
		t.Fatalf("workers=%d: Merges() = %d, want %d", workers, got, want.merges)
	}
	if got := am.SharedLocs(); len(got) != len(want.shared) {
		t.Fatalf("workers=%d: %d shared descriptors, want %d", workers, len(got), len(want.shared))
	} else {
		for i := range got {
			if got[i] != want.shared[i] {
				t.Fatalf("workers=%d: SharedLocs()[%d] = %s, want %s", workers, i, got[i], want.shared[i])
			}
		}
	}
	reversed := make([]*ir.Instr, len(accesses))
	var alternate []*ir.Instr
	for i, in := range accesses {
		reversed[len(accesses)-1-i] = in
		if i%2 == 1 {
			alternate = append(alternate, in)
		}
	}
	for _, seeds := range [][]*ir.Instr{accesses, reversed, alternate} {
		if got, exp := am.Explore(seeds), want.explore(seeds); !sameInstrs(got, exp) {
			t.Fatalf("workers=%d: Explore of %d seeds gave %d accesses, want %d in order", workers, len(seeds), len(got), len(exp))
		}
	}
}
