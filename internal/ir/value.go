package ir

import "fmt"

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, and instruction results.
type Value interface {
	// Type returns the type of the value.
	Type() Type
	// Operand returns the textual operand form (e.g. "42", "@flag", "%t3").
	Operand() string
}

// ConstInt is an integer constant.
type ConstInt struct {
	Ty *IntType
	V  int64
}

// Const returns an i64 constant with the given value.
func Const(v int64) *ConstInt { return &ConstInt{Ty: I64, V: v} }

// ConstOf returns a constant of the given integer type.
func ConstOf(t *IntType, v int64) *ConstInt { return &ConstInt{Ty: t, V: v} }

func (c *ConstInt) Type() Type      { return c.Ty }
func (c *ConstInt) Operand() string { return fmt.Sprintf("%d", c.V) }

// Global is a module-level variable. Its value as an operand is the
// address of its storage (type: pointer to Elem).
type Global struct {
	GName string
	Elem  Type
	// Init holds the initial cell values (length Elem.Cells()); nil means
	// zero-initialized.
	Init []int64
	// Volatile records a C volatile qualifier on the declaration. The
	// explicit-annotation analysis turns accesses to volatile globals into
	// SC atomics (paper section 3.2).
	Volatile bool
	// Atomic records a C11 _Atomic qualifier on the declaration.
	Atomic bool
}

func (g *Global) Type() Type      { return PointerTo(g.Elem) }
func (g *Global) Operand() string { return "@" + g.GName }

// Param is a function parameter.
type Param struct {
	PName string
	Ty    Type
	Index int
}

func (p *Param) Type() Type      { return p.Ty }
func (p *Param) Operand() string { return "%" + p.PName }

// FuncRef is a reference to a function used as a first-class value
// (e.g. the argument of a spawn call). Like a call's Callee, it names
// its target: whoever executes or analyzes it resolves the name in the
// module at hand, so a function that holds a reference can be shared by
// modules that hold different functions of that name.
type FuncRef struct {
	Name string
}

func (f *FuncRef) Type() Type      { return PointerTo(Void) }
func (f *FuncRef) Operand() string { return "@" + f.Name }
