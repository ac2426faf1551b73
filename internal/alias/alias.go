// Package alias implements AtoMig's scalable type-based alias
// exploration (paper section 3.4). Rather than a precise
// inter-procedural points-to analysis — which the paper rejects for
// memory-exhaustion reasons — accesses are keyed by a location
// descriptor: the global symbol for direct global accesses, or the
// (named struct type, constant field-offset path) of the final
// getelementptr for pointer-based accesses. All accesses sharing a
// descriptor are "sticky buddies": once one is made atomic, all are.
package alias

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// LocKind classifies a location descriptor.
type LocKind int

// Location kinds.
const (
	// LocUnknown marks dynamically computed addresses the type-based
	// scheme cannot track (a known source of false negatives the paper
	// compensates for with explicit barriers around optimistic loops).
	LocUnknown LocKind = iota
	// LocGlobal is a direct access to a named global.
	LocGlobal
	// LocField is a typed field access: struct type plus offset path.
	LocField
	// LocLocal is a non-escaping local slot; never shared, never explored.
	LocLocal
)

// Loc is a comparable location descriptor.
type Loc struct {
	Kind LocKind
	// Name is the global name (LocGlobal) or "type:path" (LocField).
	Name string
}

func (l Loc) String() string {
	switch l.Kind {
	case LocGlobal:
		return "@" + l.Name
	case LocField:
		return "%" + l.Name
	case LocLocal:
		return "<local>"
	}
	return "<unknown>"
}

// Shared reports whether the descriptor may denote shared memory worth
// exploring (globals and typed fields).
func (l Loc) Shared() bool { return l.Kind == LocGlobal || l.Kind == LocField }

// LocOf computes the location descriptor of an address value.
func LocOf(addr ir.Value) Loc {
	switch x := addr.(type) {
	case *ir.Global:
		return Loc{Kind: LocGlobal, Name: x.GName}
	case *ir.Instr:
		switch x.Op {
		case ir.OpAlloca:
			return Loc{Kind: LocLocal}
		case ir.OpGEP:
			return locOfGEP(x)
		}
	}
	return Loc{Kind: LocUnknown}
}

func locOfGEP(g *ir.Instr) Loc {
	if st, ok := g.GEPBase.(*ir.StructType); ok {
		if hasFieldStep(g.Path) {
			return Loc{Kind: LocField, Name: st.TypeName + ":" + pathString(g.Path)}
		}
	}
	// Array indexing or a pointer cast: the descriptor is inherited from
	// the base address (arr[i] aliases with every access to @arr; a cast
	// keeps the underlying location). A base descriptor of LocLocal stays
	// local only if the site did not escape, which LocOf's caller checks
	// separately via the locality analysis.
	return LocOf(g.Args[0])
}

func hasFieldStep(path []ir.GEPStep) bool {
	for _, st := range path {
		if st.Field >= 0 {
			return true
		}
	}
	return false
}

func pathString(path []ir.GEPStep) string {
	parts := make([]string, len(path))
	for i, st := range path {
		if st.Field >= 0 {
			parts[i] = fmt.Sprintf("%d", st.Field)
		} else {
			parts[i] = "[]"
		}
	}
	return strings.Join(parts, ".")
}

// Reprs returns the primary descriptor of addr (identical to LocOf)
// plus every additional descriptor that provably names the same cell
// and that other code may be using instead:
//
//   - suffix paths through nested named structs: a single GEP
//     "%outer, field 1, field 0" yields %outer:1.0 while the two-GEP
//     lowering of the same C expression yields %inner:0 — one cell,
//     two names;
//   - composed getelementptr chains: the full constant path from the
//     chain root re-expressed at every named struct type it passes;
//   - trailing array steps stripped: %node:1.[] (an element of the
//     array field) and %node:1 (the field's base cell) overlap.
//
// The sticky-buddy map unions all representations of an address into
// one equivalence class, so exploration reaches an access no matter
// which spelling its getelementptr used (a known false-negative of
// pure final-GEP matching).
func Reprs(addr ir.Value) (Loc, []Loc) {
	primary := LocOf(addr)
	return primary, extrasOf(addr, primary)
}

// extrasOf returns Reprs' additional descriptors of addr, whose primary
// descriptor is primary.
func extrasOf(addr ir.Value, primary Loc) []Loc {
	g, ok := addr.(*ir.Instr)
	if !ok || g.Op != ir.OpGEP {
		return nil
	}
	// Collect the GEP chain from the final address back to its root.
	var chain []*ir.Instr
	v := addr
	for {
		in, isInstr := v.(*ir.Instr)
		if !isInstr || in.Op != ir.OpGEP {
			break
		}
		chain = append(chain, in)
		v = in.Args[0]
	}
	// Reverse: chain[0] is closest to the root value.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	seen := map[Loc]bool{primary: true}
	var extras []Loc
	emit := func(l Loc) {
		if !l.Shared() || seen[l] {
			return
		}
		seen[l] = true
		extras = append(extras, l)
	}
	// Walk the composed path starting at every GEP's base type: each
	// named struct encountered with at least one field step remaining
	// is another valid spelling of the final cell.
	for i, gi := range chain {
		rest := suffixPath(chain[i:])
		cur := gi.GEPBase
		for {
			if st, isStruct := cur.(*ir.StructType); isStruct && hasFieldStep(rest) {
				emit(Loc{Kind: LocField, Name: st.TypeName + ":" + pathString(rest)})
				if t := trimTrailingIndexes(rest); len(t) < len(rest) && hasFieldStep(t) {
					emit(Loc{Kind: LocField, Name: st.TypeName + ":" + pathString(t)})
				}
			}
			if len(rest) == 0 {
				break
			}
			cur = childType(cur, rest[0])
			rest = rest[1:]
			if cur == nil {
				break
			}
		}
	}
	return extras
}

// suffixPath concatenates the paths of the chain GEPs.
func suffixPath(chain []*ir.Instr) []ir.GEPStep {
	n := 0
	for _, g := range chain {
		n += len(g.Path)
	}
	out := make([]ir.GEPStep, 0, n)
	for _, g := range chain {
		out = append(out, g.Path...)
	}
	return out
}

// trimTrailingIndexes drops trailing array-index steps from the path.
func trimTrailingIndexes(path []ir.GEPStep) []ir.GEPStep {
	end := len(path)
	for end > 0 && path[end-1].Field < 0 {
		end--
	}
	return path[:end]
}

// childType navigates one GEP step through a type, or nil when the
// step does not fit the type (malformed input; Reprs degrades to the
// descriptors found so far rather than guessing).
func childType(t ir.Type, st ir.GEPStep) ir.Type {
	switch x := t.(type) {
	case *ir.StructType:
		if st.Field >= 0 && st.Field < len(x.Fields) {
			return x.Fields[st.Field].Type
		}
	case *ir.ArrayType:
		if st.Field < 0 {
			return x.Elem
		}
	}
	return nil
}
