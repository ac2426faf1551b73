package analysis

import "repro/internal/ir"

// Locality classifies memory addresses in a function as local (a
// non-escaping stack or heap allocation of this function) or non-local
// (may be accessed from outside the function). This implements the
// paper's notion of non-local accesses: globals, memory reached through
// pointer arguments, and stack variables whose address escapes.
//
// A provenance describes where a pointer value may point: a set of the
// function's allocation sites (allocas and mallocs, numbered in layout
// order) and/or external memory (globals, caller memory reached through
// parameters, memory returned by unknown calls). Each provenance is a
// row: a bitset of sites, words uint64s in rows, plus the external bit
// in ext. Rows 0 and 1 are the constant empty and external
// provenances; the instruction at layout position i owns row i+2.
type Locality struct {
	index map[*ir.Instr]int32 // each instruction's row
	words int
	rows  []uint64
	ext   []bool
	// escaped holds the bits of the sites that escape.
	escaped []uint64
	// stores lists all instructions that write memory, in layout order,
	// and storeAddr the rows of their addresses: loads through local
	// slots resolve against them.
	stores    []*ir.Instr
	storeAddr []int32
}

const (
	emptyRow    int32 = 0
	externalRow int32 = 1
)

// step is one provenance update of the fixpoint: row dst takes the
// provenance of rows a and b (b is emptyRow for a GEP). A read's dst
// instead takes the external bit of its address a and the stored values
// of every write whose address may share a site with a.
type step struct {
	dst, a, b int32
	read      bool
}

// write is a writing instruction that stores a value: the rows of its
// address and of the stored value.
type write struct{ addr, val int32 }

// AnalyzeLocality computes locality information for f.
func AnalyzeLocality(f *ir.Func) *Locality {
	l := &Locality{index: make(map[*ir.Instr]int32, f.NumInstrs())}
	n, sites := int32(2), 0
	f.Instrs(func(in *ir.Instr) {
		l.index[in] = n
		n++
		if isSite(in) {
			sites++
		}
	})
	l.words = (sites + 63) / 64
	l.rows = make([]uint64, int(n)*l.words)
	l.ext = make([]bool, n)
	l.ext[externalRow] = true
	l.escaped = make([]uint64, l.words)

	// Resolve every operand to its row once. Sites and pointer-typed
	// calls have constant provenance, set here; everything else is an
	// update step of the fixpoint.
	var steps []step
	var writes []write
	var passed []int32 // rows passed to calls or returned
	site := 0
	f.Instrs(func(in *ir.Instr) {
		r := l.index[in]
		switch in.Op {
		case ir.OpAlloca:
			l.bits(r)[site/64] |= 1 << (site % 64)
			site++
		case ir.OpCall:
			if in.Callee == "malloc" {
				l.bits(r)[site/64] |= 1 << (site % 64)
				site++
			} else if ir.IsPtr(in.Type()) {
				l.ext[r] = true
			}
			for _, a := range in.Args {
				passed = append(passed, l.row(a))
			}
		case ir.OpGEP:
			steps = append(steps, step{dst: r, a: l.row(in.Args[0]), b: emptyRow})
		case ir.OpBin:
			steps = append(steps, step{dst: r, a: l.row(in.Args[0]), b: l.row(in.Args[1])})
		case ir.OpLoad, ir.OpCmpXchg, ir.OpRMW:
			steps = append(steps, step{dst: r, a: l.row(in.Args[0]), read: true})
		case ir.OpRet:
			if len(in.Args) == 1 {
				passed = append(passed, l.row(in.Args[0]))
			}
		}
		if in.Writes() {
			addr := l.row(in.Args[0])
			l.stores = append(l.stores, in)
			l.storeAddr = append(l.storeAddr, addr)
			if v := storedValue(in); v != nil {
				writes = append(writes, write{addr, l.row(v)})
			}
		}
	})

	// Provenance fixpoint in layout order: a load through a local slot
	// needs stores that may appear later in layout order, so sweep until
	// stable. On inlined MiniC this takes one productive and one
	// confirming sweep for nearly every function, which is why there is
	// no worklist: its bookkeeping would cost more than it saves.
	for changed := true; changed; {
		changed = false
		for _, s := range steps {
			if l.update(s, writes) {
				changed = true
			}
		}
	}
	// Escape fixpoint: a site escapes if its address is passed to a
	// call, returned, or stored (by store, cmpxchg or xchg) into
	// external or escaped memory.
	for _, r := range passed {
		or(l.escaped, l.bits(r))
	}
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			if (l.ext[w.addr] || intersects(l.bits(w.addr), l.escaped)) && or(l.escaped, l.bits(w.val)) {
				changed = true
			}
		}
	}
	return l
}

// isSite reports whether in is an allocation site.
func isSite(in *ir.Instr) bool {
	return in.Op == ir.OpAlloca || in.Op == ir.OpCall && in.Callee == "malloc"
}

// row returns the row holding the provenance of any value operand.
func (l *Locality) row(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.ConstInt, *ir.FuncRef:
		return emptyRow
	case *ir.Instr:
		if r, ok := l.index[x]; ok {
			return r
		}
		return emptyRow
	}
	return externalRow
}

// bits returns the site bits of row r.
func (l *Locality) bits(r int32) []uint64 {
	i := int(r) * l.words
	return l.rows[i : i+l.words : i+l.words]
}

// merge unions row src into row dst, reporting whether dst changed.
func (l *Locality) merge(dst, src int32) bool {
	changed := or(l.bits(dst), l.bits(src))
	if l.ext[src] && !l.ext[dst] {
		l.ext[dst] = true
		changed = true
	}
	return changed
}

// update applies step s, reporting whether its row changed.
func (l *Locality) update(s step, writes []write) bool {
	if !s.read {
		changed := l.merge(s.dst, s.a)
		return l.merge(s.dst, s.b) || changed
	}
	// The loaded value may point wherever values stored to the loaded
	// location point.
	changed := false
	if l.ext[s.a] && !l.ext[s.dst] {
		l.ext[s.dst] = true
		changed = true
	}
	addr := l.bits(s.a)
	if isEmpty(addr) {
		return changed
	}
	for _, w := range writes {
		if intersects(addr, l.bits(w.addr)) && l.merge(s.dst, w.val) {
			changed = true
		}
	}
	return changed
}

// storedValue returns the value a writing instruction stores, or nil if
// it stores a derived value with no pointer provenance of its own (RMW
// arithmetic results).
func storedValue(st *ir.Instr) ir.Value {
	switch st.Op {
	case ir.OpStore:
		return st.Args[1]
	case ir.OpCmpXchg:
		return st.Args[2]
	case ir.OpRMW:
		if st.RMW == ir.RMWXchg {
			return st.Args[1]
		}
		return nil
	}
	return nil
}

// or unions the site bits b into a, reporting whether a changed.
func or(a, b []uint64) bool {
	changed := false
	for i, w := range b {
		if w&^a[i] != 0 {
			a[i] |= w
			changed = true
		}
	}
	return changed
}

// intersects reports whether two rows share a site.
func intersects(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// isEmpty reports whether a row has no site.
func isEmpty(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// NonLocal reports whether the given address value may denote memory
// accessible from outside the function.
func (l *Locality) NonLocal(addr ir.Value) bool {
	r := l.row(addr)
	if l.ext[r] {
		return true
	}
	if isEmpty(l.bits(r)) {
		// No known provenance at all (e.g. a raw integer used as an
		// address): be conservative.
		_, isConst := addr.(*ir.ConstInt)
		return !isConst
	}
	return intersects(l.bits(r), l.escaped)
}

// LocalStoresTo returns the writing instructions that may write the
// local memory designated by addr. Used by the influence analysis to
// chase dataflow through stack slots.
func (l *Locality) LocalStoresTo(addr ir.Value) []*ir.Instr {
	a := l.bits(l.row(addr))
	if isEmpty(a) {
		return nil
	}
	var out []*ir.Instr
	for i, st := range l.stores {
		if intersects(a, l.bits(l.storeAddr[i])) {
			out = append(out, st)
		}
	}
	return out
}

// Escaped reports whether the allocation site (an alloca or malloc
// instruction) escapes the function.
func (l *Locality) Escaped(site *ir.Instr) bool {
	r, ok := l.index[site]
	// A site's row holds exactly its own bit.
	return ok && isSite(site) && intersects(l.bits(r), l.escaped)
}
