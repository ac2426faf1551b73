// Sharded concurrent construction of the module-wide alias map. The
// map is built once per port (paper section 3.5) and, for the
// million-line modules of Table 3, that build is on the pipeline's
// critical path — so it fans out per function through fanout.Each:
// workers push each memory access into a lock-striped shard keyed by
// its location descriptor, and feed every alternate descriptor of the
// address (alias.Reprs) into the lock-striped union-find. A final
// freeze step groups the per-location access lists into canonical
// equivalence classes and sorts each class by (function index,
// instruction position), so lookups and exploration return identical,
// deterministically ordered results for every worker count
// (docs/PIPELINE.md).
package alias

import (
	"math/bits"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/fanout"
	"repro/internal/ir"
)

// Map is the module-wide index from location descriptor to all memory
// accesses of that location, closed under the union-find's equivalence
// classes. After BuildMap returns the structure is immutable and safe
// for concurrent readers.
type Map struct {
	shards    []mapShard
	shift     uint
	nolock    bool
	uf        *UnionFind
	instrLocs []instrLocShard
	// classes maps each canonical root to the ordered accesses of the
	// whole class (built by freeze).
	classes map[Loc][]*ir.Instr
}

// accessRec carries the deterministic sort key assigned during the
// parallel build: accesses are ordered by where they appear in the
// module, not by which worker indexed them first.
type accessRec struct {
	in  *ir.Instr
	seq uint64
}

type mapShard struct {
	mu sync.Mutex
	m  map[Loc][]accessRec
	_  [40]byte
}

type instrLocShard struct {
	mu sync.Mutex
	m  map[*ir.Instr]Loc
	_  [40]byte
}

const mapShardsPerWorker = 8

// BuildMap scans the module and indexes every memory access with a
// single worker. See BuildMapParallel.
func BuildMap(m *ir.Module) *Map { return BuildMapParallel(m, 1) }

// BuildMapParallel builds the alias map with the given number of
// workers. The resulting map — classes, canonical representatives,
// and the order of every access list — is identical for every worker
// count.
func BuildMapParallel(m *ir.Module, workers int) *Map {
	return BuildMapFromAccesses(m, workers, nil)
}

// Access is one memory access's contribution to the alias map: the
// access instruction, its 1-based position in the function's
// block-order instruction walk, and the descriptors of its address
// (Reprs). PrepareFunc computes contributions per function; a cached
// slice replayed onto an instruction-identical function instance feeds
// BuildMapFromAccesses exactly as a fresh scan would.
type Access struct {
	In      *ir.Instr
	Pos     int
	Primary Loc
	Extras  []Loc
}

// PrepareFunc computes one function's alias contributions: every
// memory access, in block order, with its descriptors. The position
// counter advances over every instruction (not just accesses), so a
// contribution can be re-anchored positionally on another instance of
// the same function.
func PrepareFunc(f *ir.Func) []Access {
	var out []Access
	pos := 0
	f.Instrs(func(in *ir.Instr) {
		pos++
		if !in.IsMemAccess() {
			return
		}
		primary, extras := Reprs(in.Addr())
		out = append(out, Access{In: in, Pos: pos, Primary: primary, Extras: extras})
	})
	return out
}

// BuildMapFromAccesses builds the alias map from per-function access
// contributions supplied by get (fi is the function's index in
// m.Funcs). A nil get scans each function in place (PrepareFunc). The
// resulting map is identical for every worker count and identical to a
// direct BuildMapParallel of the same module. A panic in get comes back
// on the calling goroutine as a *diag.InternalError (fanout.Each).
func BuildMapFromAccesses(m *ir.Module, workers int, get func(fi int, f *ir.Func) []Access) *Map {
	if workers < 1 {
		workers = 1
	}
	if workers > len(m.Funcs) && len(m.Funcs) > 0 {
		workers = len(m.Funcs)
	}
	n := 1
	for n < workers*mapShardsPerWorker {
		n <<= 1
	}
	am := &Map{
		shards:    make([]mapShard, n),
		shift:     uint(64 - bits.TrailingZeros(uint(n))),
		nolock:    workers <= 1,
		uf:        NewUnionFind(workers),
		instrLocs: make([]instrLocShard, n),
	}
	for i := range am.shards {
		am.shards[i].m = make(map[Loc][]accessRec)
	}
	for i := range am.instrLocs {
		am.instrLocs[i].m = make(map[*ir.Instr]Loc)
	}
	// The callback never fails, so Each has no error to report.
	_ = fanout.Each(workers, len(m.Funcs), func(_, fi int) error {
		f := m.Funcs[fi]
		var accs []Access
		if get != nil {
			accs = get(fi, f)
		} else {
			accs = PrepareFunc(f)
		}
		am.indexAccesses(fi, accs)
		return nil
	})
	am.freeze()
	return am
}

// indexAccesses records one function's prepared contributions.
func (am *Map) indexAccesses(fi int, accs []Access) {
	for _, a := range accs {
		am.setLoc(a.In, a.Primary)
		if !a.Primary.Shared() {
			continue
		}
		am.append(a.Primary, accessRec{in: a.In, seq: uint64(fi)<<32 | uint64(a.Pos)})
		am.uf.Add(a.Primary)
		for _, e := range a.Extras {
			am.uf.Union(a.Primary, e)
		}
	}
}

func (am *Map) setLoc(in *ir.Instr, loc Loc) {
	sh := &am.instrLocs[hashPtr(in)>>am.shift]
	if am.nolock {
		sh.m[in] = loc
		return
	}
	sh.mu.Lock()
	sh.m[in] = loc
	sh.mu.Unlock()
}

func (am *Map) append(loc Loc, rec accessRec) {
	sh := &am.shards[hashLoc(loc)>>am.shift]
	if am.nolock {
		sh.m[loc] = append(sh.m[loc], rec)
		return
	}
	sh.mu.Lock()
	sh.m[loc] = append(sh.m[loc], rec)
	sh.mu.Unlock()
}

// hashPtr mixes an instruction pointer for stripe selection.
func hashPtr(in *ir.Instr) uint64 {
	h := uint64(uintptr(unsafe.Pointer(in)))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// freeze groups every location's accesses into its canonical class and
// sorts each class by module position. Runs once, after all workers
// have quiesced.
func (am *Map) freeze() {
	byRoot := make(map[Loc][]accessRec)
	for i := range am.shards {
		for loc, recs := range am.shards[i].m {
			rt := am.uf.Find(loc)
			byRoot[rt] = append(byRoot[rt], recs...)
		}
	}
	am.classes = make(map[Loc][]*ir.Instr, len(byRoot))
	for rt, recs := range byRoot {
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		ins := make([]*ir.Instr, len(recs))
		for i, r := range recs {
			ins[i] = r.in
		}
		am.classes[rt] = ins
	}
}

// Loc returns the cached primary descriptor of a memory access.
func (am *Map) Loc(in *ir.Instr) Loc {
	sh := &am.instrLocs[hashPtr(in)>>am.shift]
	if am.nolock {
		return sh.m[in]
	}
	sh.mu.Lock()
	loc := sh.m[in]
	sh.mu.Unlock()
	return loc
}

// Canon returns the canonical representative of loc's sticky class:
// the lexicographically smallest descriptor the union-find merged it
// with (loc itself when nothing aliases it).
func (am *Map) Canon(loc Loc) Loc { return am.uf.Find(loc) }

// Same reports whether two descriptors are in one sticky class.
func (am *Map) Same(a, b Loc) bool { return am.uf.Find(a) == am.uf.Find(b) }

// Merges returns how many distinct descriptor classes the union-find
// joined during the build.
func (am *Map) Merges() int64 { return am.uf.Merges() }

// Buddies returns every access in the module whose descriptor is in
// the same class as loc, in deterministic module order.
func (am *Map) Buddies(loc Loc) []*ir.Instr {
	if !loc.Shared() {
		return nil
	}
	return am.classes[am.uf.Find(loc)]
}

// SharedLocs returns all shared primary descriptors present in the
// module, sorted.
func (am *Map) SharedLocs() []Loc {
	var out []Loc
	for i := range am.shards {
		for l := range am.shards[i].m {
			out = append(out, l)
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
		rt := am.uf.Find(loc)
		if seen[rt] {
			continue
		}
		seen[rt] = true
		out = append(out, am.classes[rt]...)
	}
	return out
}
