// Package ir defines AIR, the typed intermediate representation used by
// the atomig pipeline. AIR mirrors the fragment of LLVM IR that the
// AtoMig paper's analyses operate on: modules of globals and functions,
// functions as control-flow graphs of basic blocks, and instructions that
// include plain and atomic loads/stores, compare-exchange, atomic
// read-modify-write, fences, and getelementptr-style address arithmetic.
//
// Like clang -O0 output (which is what the paper analyzes), AIR does not
// use SSA phi nodes: mutable local variables live in stack slots created
// by Alloca, and every instruction result register is assigned exactly
// once. Memory is cell-addressed: every scalar occupies one cell, and
// aggregate layout is measured in cells, which keeps address arithmetic
// exact without byte-level complexity.
package ir

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all AIR types.
type Type interface {
	// String returns the textual form of the type (e.g. "i64", "ptr i64").
	String() string
	// Cells returns the storage size of the type in memory cells. Every
	// scalar (integer or pointer) occupies exactly one cell.
	Cells() int
}

// IntType is an integer type of a given bit width. AIR models i1, i8,
// i32 and i64; all are stored in a single cell.
type IntType struct {
	Bits int
}

func (t *IntType) String() string { return fmt.Sprintf("i%d", t.Bits) }

// Cells returns 1: every integer occupies one memory cell.
func (t *IntType) Cells() int { return 1 }

// PtrType is a pointer to a value of type Elem.
type PtrType struct {
	Elem Type
}

func (t *PtrType) String() string { return "ptr " + t.Elem.String() }

// Cells returns 1: pointers are scalar cell addresses.
func (t *PtrType) Cells() int { return 1 }

// StructType is a named aggregate with ordered fields. Field offsets are
// measured in cells. The name participates in type identity for the
// type-based alias analysis (two GEPs alias if they use the same named
// struct type and the same constant offsets), mirroring the paper's use
// of LLVM getelementptr type+offset matching.
type StructType struct {
	TypeName string
	Fields   []Field
}

// Field is a single named member of a StructType.
type Field struct {
	Name string
	Type Type
	// Volatile and Atomic record C qualifiers on the member declaration;
	// the frontend propagates them onto accesses through this field.
	Volatile bool
	Atomic   bool
}

func (t *StructType) String() string { return "%" + t.TypeName }

// Cells returns the total storage size: the sum of all field sizes.
func (t *StructType) Cells() int {
	n := 0
	for _, f := range t.Fields {
		n += f.Type.Cells()
	}
	return n
}

// FieldOffset returns the cell offset of field index i within the struct.
func (t *StructType) FieldOffset(i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += t.Fields[j].Type.Cells()
	}
	return off
}

// FieldIndex returns the index of the field with the given name, or -1.
func (t *StructType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Layout returns the textual definition of the struct (parseable by
// ParseModule).
func (t *StructType) Layout() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%s = type {", t.TypeName)
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Type, f.Name)
		if f.Volatile {
			b.WriteString(" volatile")
		}
		if f.Atomic {
			b.WriteString(" atomic")
		}
	}
	b.WriteString("}")
	return b.String()
}

// ArrayType is a fixed-length sequence of Elem values.
type ArrayType struct {
	Elem Type
	Len  int
}

func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }

// Cells returns Len copies of the element size.
func (t *ArrayType) Cells() int { return t.Len * t.Elem.Cells() }

// VoidType is the type of instructions that produce no value.
type VoidType struct{}

func (t *VoidType) String() string { return "void" }

// Cells returns 0: void values occupy no storage.
func (t *VoidType) Cells() int { return 0 }

// Singleton types shared across the package. Types are compared by
// pointer identity for scalars and by name for structs.
var (
	I1   = &IntType{Bits: 1}
	I8   = &IntType{Bits: 8}
	I32  = &IntType{Bits: 32}
	I64  = &IntType{Bits: 64}
	Void = &VoidType{}
)

// PointerTo returns a pointer type to elem.
func PointerTo(elem Type) *PtrType { return &PtrType{Elem: elem} }

// TypesEqual reports whether a and b denote the same type. Integer types
// compare by width, pointers recursively, structs by name, arrays by
// length and element type.
func TypesEqual(a, b Type) bool {
	switch x := a.(type) {
	case *IntType:
		y, ok := b.(*IntType)
		return ok && x.Bits == y.Bits
	case *PtrType:
		y, ok := b.(*PtrType)
		return ok && TypesEqual(x.Elem, y.Elem)
	case *StructType:
		y, ok := b.(*StructType)
		return ok && x.TypeName == y.TypeName
	case *ArrayType:
		y, ok := b.(*ArrayType)
		return ok && x.Len == y.Len && TypesEqual(x.Elem, y.Elem)
	case *VoidType:
		_, ok := b.(*VoidType)
		return ok
	}
	return false
}

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool { _, ok := t.(*PtrType); return ok }

// Pointee returns the element type of a pointer type, or nil if t is not
// a pointer.
func Pointee(t Type) Type {
	if p, ok := t.(*PtrType); ok {
		return p.Elem
	}
	return nil
}
