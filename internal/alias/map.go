// The module-wide alias map, built once per port (paper section 3.5)
// as a sequential fold in module order (docs/PIPELINE.md).

package alias

import (
	"sort"

	"repro/internal/fanout"
	"repro/internal/ir"
)

// Map is the module-wide index from shared location descriptor to all
// memory accesses of that location, closed under the equivalence of
// same-cell descriptors (Reprs). Accesses with a local or unknown
// descriptor are never unioned or explored, so the map holds none of
// them. After the build it is immutable and safe for concurrent
// readers.
type Map struct {
	// canon maps every shared descriptor of the module, primary or
	// extra, to its class root: the class's smallest member (locLess).
	canon map[Loc]Loc
	// classes maps each root to the accesses of its class, in module
	// order.
	classes map[Loc][]*ir.Instr
	merges  int64
}

// BuildMap scans the module and indexes every shared memory access
// with a single worker.
func BuildMap(m *ir.Module) *Map { return BuildMapFromAccesses(m, 1, nil) }

// Access is one shared memory access's contribution to the alias map:
// the access instruction, its position, and the descriptors of its
// address (Reprs). PrepareFunc computes contributions per function; a
// summarized slice replayed onto an instruction-identical function
// instance feeds BuildMapFromAccesses exactly as a fresh scan would.
type Access struct {
	In *ir.Instr
	// Pos is In's 1-based position in the function's block-order
	// instruction walk. The map does not read it; a detection
	// summary's replay (atomig's incremental.go) checks a summarized
	// access against it.
	Pos     int
	Primary Loc
	Extras  []Loc
}

// PrepareFunc computes one function's alias contributions: every
// memory access with a shared descriptor, in block order, with its
// descriptors. The position counter advances over every instruction
// (not just accesses), so a contribution can be re-anchored
// positionally on another instance of the same function.
func PrepareFunc(f *ir.Func) []Access {
	var out []Access
	pos := 0
	f.Instrs(func(in *ir.Instr) {
		pos++
		if !in.IsMemAccess() {
			return
		}
		addr := in.Addr()
		primary := LocOf(addr)
		if !primary.Shared() {
			return
		}
		out = append(out, Access{In: in, Pos: pos, Primary: primary, Extras: extrasOf(addr, primary)})
	})
	return out
}

// BuildMapFromAccesses builds the alias map from per-function access
// contributions supplied by get (fi is the function's index in
// m.Funcs). A nil get scans each function in place (PrepareFunc). A
// contribution whose primary descriptor is not shared is skipped. Only
// the get calls fan out over the workers; the map is then indexed in
// module order on the calling goroutine, so it is identical for every
// worker count. A panic in get comes back on the calling goroutine as
// a *diag.InternalError (fanout.Each).
func BuildMapFromAccesses(m *ir.Module, workers int, get func(fi int, f *ir.Func) []Access) *Map {
	if get == nil {
		get = func(_ int, f *ir.Func) []Access { return PrepareFunc(f) }
	}
	accs := make([][]Access, len(m.Funcs))
	// The callback never fails, so Each has no error to report.
	_ = fanout.Each(workers, len(m.Funcs), func(_, fi int) error {
		accs[fi] = get(fi, m.Funcs[fi])
		return nil
	})
	am := &Map{canon: make(map[Loc]Loc)}

	// Pass 1: union every shared primary with its other spellings.
	for _, fa := range accs {
		for _, a := range fa {
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
	am.classes = make(map[Loc][]*ir.Instr)
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

// add makes d a class of its own unless it is in one already.
func (am *Map) add(d Loc) {
	if _, ok := am.canon[d]; !ok {
		am.canon[d] = d
	}
}

// find returns the root of d's class, halving the path behind it. d
// must have been added.
func (am *Map) find(d Loc) Loc {
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

// union joins the classes of the added descriptors a and b, counting
// the merge when they were distinct. The smaller root wins, so a
// class's root is its smallest member whatever order the unions come
// in.
func (am *Map) union(a, b Loc) {
	ra, rb := am.find(a), am.find(b)
	if ra == rb {
		return
	}
	if locLess(rb, ra) {
		ra, rb = rb, ra
	}
	am.canon[rb] = ra
	am.merges++
}

// locLess is the total order on descriptors that picks class roots.
func locLess(a, b Loc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Name < b.Name
}

// Loc returns the primary descriptor of a memory access (LocOf of its
// address), and the zero Loc for any other instruction.
func (am *Map) Loc(in *ir.Instr) Loc {
	if !in.IsMemAccess() {
		return Loc{}
	}
	return LocOf(in.Addr())
}

// Canon returns the canonical representative of loc's sticky class:
// the lexicographically smallest descriptor it was merged with (loc
// itself when nothing aliases it).
func (am *Map) Canon(loc Loc) Loc {
	if rt, ok := am.canon[loc]; ok {
		return rt
	}
	return loc
}

// Merges returns how many distinct descriptor classes the build
// joined.
func (am *Map) Merges() int64 { return am.merges }

// Buddies returns every access in the module whose descriptor is in
// the same class as loc, in module order.
func (am *Map) Buddies(loc Loc) []*ir.Instr {
	if !loc.Shared() {
		return nil
	}
	return am.classes[am.Canon(loc)]
}

// SharedLocs returns all shared primary descriptors present in the
// module, sorted: the descriptors of the classes' accesses.
func (am *Map) SharedLocs() []Loc {
	seen := make(map[Loc]bool)
	var out []Loc
	for _, ins := range am.classes {
		for _, in := range ins {
			if l := am.Loc(in); !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	return out
}

// Explore returns all sticky buddies of the seed accesses: every
// access in the module whose descriptor is in the same class as the
// descriptor of any seed. Seeds with unknown or local descriptors
// contribute nothing. Output order is deterministic: classes appear in
// first-seed order, accesses within a class in module order.
func (am *Map) Explore(seeds []*ir.Instr) []*ir.Instr {
	seen := make(map[Loc]bool)
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
