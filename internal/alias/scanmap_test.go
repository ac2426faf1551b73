package alias_test

import (
	"sort"
	"testing"

	"repro/internal/alias"
	"repro/internal/fanout"
	"repro/internal/ir"
)

// scanMap is the alias map as it was built from every memory access,
// before the map and PrepareFunc dropped the accesses with a local or
// unknown descriptor. It is kept unchanged as the reference the
// shared-only map is checked against: it indexes each access's primary
// descriptor per instruction and derives SharedLocs from that index.
type scanMap struct {
	locs map[*ir.Instr]alias.Loc
	// canon maps every shared descriptor of the module, primary or
	// extra, to its class root: the class's smallest member (locLess).
	canon map[alias.Loc]alias.Loc
	// classes maps each root to the accesses of its class, in module
	// order.
	classes map[alias.Loc][]*ir.Instr
	merges  int64
}

// scanPrepareFunc computes one function's alias contributions: every
// memory access, in block order, with its descriptors.
func scanPrepareFunc(f *ir.Func) []alias.Access {
	var out []alias.Access
	pos := 0
	f.Instrs(func(in *ir.Instr) {
		pos++
		if !in.IsMemAccess() {
			return
		}
		primary, extras := alias.Reprs(in.Addr())
		out = append(out, alias.Access{In: in, Pos: pos, Primary: primary, Extras: extras})
	})
	return out
}

// buildScanMap scans every function with scanPrepareFunc over the
// workers and indexes the contributions in module order.
func buildScanMap(m *ir.Module, workers int) *scanMap {
	accs := make([][]alias.Access, len(m.Funcs))
	_ = fanout.Each(workers, len(m.Funcs), func(_, fi int) error {
		accs[fi] = scanPrepareFunc(m.Funcs[fi])
		return nil
	})
	n := 0
	for _, fa := range accs {
		n += len(fa)
	}
	am := &scanMap{locs: make(map[*ir.Instr]alias.Loc, n), canon: make(map[alias.Loc]alias.Loc)}

	// Pass 1: record each access's descriptor, and union every shared
	// primary with its other spellings.
	for _, fa := range accs {
		for _, a := range fa {
			am.locs[a.In] = a.Primary
			if !a.Primary.Shared() {
				continue
			}
			am.add(a.Primary)
			for _, e := range a.Extras {
				am.add(e)
				am.union(a.Primary, e)
			}
		}
	}

	// Pass 2: point every descriptor straight at its root, so that
	// readers never walk or compress a path, then file each shared
	// access under its root. The walk itself is module order.
	for d := range am.canon {
		am.canon[d] = am.find(d)
	}
	am.classes = make(map[alias.Loc][]*ir.Instr)
	for _, fa := range accs {
		for _, a := range fa {
			if a.Primary.Shared() {
				rt := am.canon[a.Primary]
				am.classes[rt] = append(am.classes[rt], a.In)
			}
		}
	}
	return am
}

func (am *scanMap) add(d alias.Loc) {
	if _, ok := am.canon[d]; !ok {
		am.canon[d] = d
	}
}

func (am *scanMap) find(d alias.Loc) alias.Loc {
	for {
		p := am.canon[d]
		if p == d {
			return d
		}
		gp := am.canon[p]
		am.canon[d] = gp
		d = gp
	}
}

func (am *scanMap) union(a, b alias.Loc) {
	ra, rb := am.find(a), am.find(b)
	if ra == rb {
		return
	}
	if locBefore(rb, ra) {
		ra, rb = rb, ra
	}
	am.canon[rb] = ra
	am.merges++
}

func (am *scanMap) Loc(in *ir.Instr) alias.Loc { return am.locs[in] }

func (am *scanMap) Canon(loc alias.Loc) alias.Loc {
	if rt, ok := am.canon[loc]; ok {
		return rt
	}
	return loc
}

func (am *scanMap) Buddies(loc alias.Loc) []*ir.Instr {
	if !loc.Shared() {
		return nil
	}
	return am.classes[am.Canon(loc)]
}

func (am *scanMap) SharedLocs() []alias.Loc {
	seen := make(map[alias.Loc]bool)
	var out []alias.Loc
	for _, l := range am.locs {
		if l.Shared() && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return locBefore(out[i], out[j]) })
	return out
}

func (am *scanMap) Explore(seeds []*ir.Instr) []*ir.Instr {
	seen := make(map[alias.Loc]bool)
	var out []*ir.Instr
	for _, s := range seeds {
		loc := am.Loc(s)
		if !loc.Shared() {
			continue
		}
		rt := am.Canon(loc)
		if seen[rt] {
			continue
		}
		seen[rt] = true
		out = append(out, am.classes[rt]...)
	}
	return out
}

// TestMapMatchesScan checks the shared-only alias map against the
// all-access scan it replaced, at 1 and 4 workers: Loc of every
// instruction, Canon and Buddies of every descriptor any access spells
// (local and unknown ones among them), Merges, SharedLocs, and Explore
// from every access in module order, in reverse, and from every other
// access.
func TestMapMatchesScan(t *testing.T) {
	modules := testModules(t)
	names := make([]string, 0, len(modules))
	for name := range modules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := modules[name]
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				matchScan(t, w, m)
			}
		})
	}
}

func matchScan(t *testing.T, workers int, m *ir.Module) {
	t.Helper()
	am, want := alias.BuildMapFromAccesses(m, workers, nil), buildScanMap(m, workers)
	var accesses []*ir.Instr
	descs := map[alias.Loc]bool{{Kind: alias.LocGlobal, Name: "not in the module"}: true}
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if got, exp := am.Loc(in), want.Loc(in); got != exp {
			t.Fatalf("workers=%d: Loc(%s) = %s, want %s", workers, in, got, exp)
		}
		if !in.IsMemAccess() {
			return
		}
		accesses = append(accesses, in)
		primary, extras := alias.Reprs(in.Addr())
		descs[primary] = true
		for _, e := range extras {
			descs[e] = true
		}
	})
	for l := range want.canon {
		descs[l] = true
	}
	for l := range descs {
		if got, exp := am.Canon(l), want.Canon(l); got != exp {
			t.Fatalf("workers=%d: Canon(%s) = %s, want %s", workers, l, got, exp)
		}
		if got, exp := am.Buddies(l), want.Buddies(l); !sameInstrs(got, exp) {
			t.Fatalf("workers=%d: Buddies(%s) has %d accesses, want %d in module order", workers, l, len(got), len(exp))
		}
	}
	if got, exp := am.Merges(), want.merges; got != exp {
		t.Fatalf("workers=%d: Merges() = %d, want %d", workers, got, exp)
	}
	got, exp := am.SharedLocs(), want.SharedLocs()
	if len(got) != len(exp) {
		t.Fatalf("workers=%d: %d shared descriptors, want %d", workers, len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("workers=%d: SharedLocs()[%d] = %s, want %s", workers, i, got[i], exp[i])
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
		if got, exp := am.Explore(seeds), want.Explore(seeds); !sameInstrs(got, exp) {
			t.Fatalf("workers=%d: Explore of %d seeds gave %d accesses, want %d in order", workers, len(seeds), len(got), len(exp))
		}
	}
}
