package ir

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Block is a basic block: a straight-line sequence of instructions ending
// in a terminator (br or ret).
type Block struct {
	Name   string
	Fn     *Func
	Instrs []*Instr
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks of b.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil || t.Op != OpBr {
		return nil
	}
	if t.Else == nil {
		return []*Block{t.Then}
	}
	return []*Block{t.Then, t.Else}
}

// Func is a function: an ordered list of basic blocks whose first entry
// is the entry block.
type Func struct {
	Name   string
	Params []*Param
	RetTy  Type
	Blocks []*Block

	nextID int
	// resolver is transient parser state (see parse.go).
	resolver any
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with the given name to the function.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NextID allocates the next unique instruction ID within the function.
func (f *Func) NextID() int {
	id := f.nextID
	f.nextID++
	return id
}

// NumIDs returns an exclusive upper bound on instruction IDs in the
// function (used to size register files in the VM).
func (f *Func) NumIDs() int { return f.nextID }

// NumberUnnamed gives every instruction the text form leaves unnamed
// (void ones, and any without an ID) the ID the parser gives it: in
// block order, counting on from the largest named ID (from 1 when none
// is named). The ID watermark becomes the next ID after them. The parser
// numbers what it reads this way, so a function numbered here keeps its
// IDs and watermark through a print and a re-parse, and the inliner,
// which names blocks after call IDs and numbers new registers from the
// watermark, treats the function and its text alike.
func (f *Func) NumberUnnamed() {
	next := 0
	f.Instrs(func(in *Instr) {
		if in.Type() != Void && in.ID > next {
			next = in.ID
		}
	})
	next++
	f.Instrs(func(in *Instr) {
		if in.ID < 0 || in.Type() == Void {
			in.ID = next
			next++
		}
	})
	f.nextID = next
}

// Preds returns a map from block to its predecessor blocks.
func (f *Func) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// Instrs calls fn for every instruction in the function, in block order.
func (f *Func) Instrs(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a whole-program unit: named struct types, globals, and
// functions. AtoMig operates at link time on a complete module (paper
// section 3.1), so a Module corresponds to one fully linked build target.
type Module struct {
	Name    string
	Structs map[string]*StructType
	Globals []*Global
	Funcs   []*Func

	globalIdx map[string]*Global
	funcIdx   map[string]*Func
}

// NewModule returns an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{
		Name:      name,
		Structs:   make(map[string]*StructType),
		globalIdx: make(map[string]*Global),
		funcIdx:   make(map[string]*Func),
	}
}

// AddStruct registers a named struct type. It returns an error if the
// name is already taken by a different definition.
func (m *Module) AddStruct(st *StructType) error {
	if old, ok := m.Structs[st.TypeName]; ok && old != st {
		return fmt.Errorf("ir: duplicate struct type %q", st.TypeName)
	}
	m.Structs[st.TypeName] = st
	return nil
}

// AddGlobal registers a global variable.
func (m *Module) AddGlobal(g *Global) error {
	if _, ok := m.globalIdx[g.GName]; ok {
		return fmt.Errorf("ir: duplicate global @%s", g.GName)
	}
	m.Globals = append(m.Globals, g)
	m.globalIdx[g.GName] = g
	return nil
}

// Global looks up a global by name.
func (m *Module) Global(name string) *Global { return m.globalIdx[name] }

// AddFunc registers a function.
func (m *Module) AddFunc(f *Func) error {
	if _, ok := m.funcIdx[f.Name]; ok {
		return fmt.Errorf("ir: duplicate function @%s", f.Name)
	}
	m.Funcs = append(m.Funcs, f)
	m.funcIdx[f.Name] = f
	return nil
}

// Func looks up a function by name.
func (m *Module) Func(name string) *Func { return m.funcIdx[name] }

// Derive returns a module with m's name, struct types and globals, and
// funcs in the given order. Types, globals and functions are shared,
// not copied, so none of them may be mutated afterwards; adding to,
// replacing in or removing from the result leaves m untouched. Calls
// and function references name their targets, so a shared function
// refers to the result's function of that name. This is how the
// incremental porting service builds the next version of a module, and
// a port the version it ports, without cloning it.
func (m *Module) Derive(funcs []*Func) *Module {
	out := &Module{
		Name:      m.Name,
		Structs:   maps.Clone(m.Structs),
		Globals:   slices.Clip(m.Globals),
		Funcs:     slices.Clone(funcs),
		globalIdx: maps.Clone(m.globalIdx),
		funcIdx:   make(map[string]*Func, len(funcs)),
	}
	for _, f := range funcs {
		out.funcIdx[f.Name] = f
	}
	return out
}

// ReplaceFuncs installs fresh copies of srcs (functions owned by other
// modules, e.g. parsed from deltas), bound to m's globals (CopyFunc). A
// copy takes the place of m's like-named function; one with a new name
// is appended, in srcs order, and a later source of a repeated name
// wins. A reference to a function m lacks is left for Verify to report.
func (m *Module) ReplaceFuncs(srcs ...*Func) {
	for _, src := range srcs {
		nf := m.CopyFunc(src)
		if _, ok := m.funcIdx[src.Name]; !ok {
			m.Funcs = append(m.Funcs, nf)
		}
		m.funcIdx[src.Name] = nf
	}
	for i, f := range m.Funcs {
		m.Funcs[i] = m.funcIdx[f.Name]
	}
}

// SetFunc puts f in place of m.Funcs[i], which must have f's name: a
// port installs its private copy of a function this way.
func (m *Module) SetFunc(i int, f *Func) {
	if m.Funcs[i].Name != f.Name {
		panic(fmt.Sprintf("ir: SetFunc: @%s in place of @%s", f.Name, m.Funcs[i].Name))
	}
	m.Funcs[i] = f
	m.funcIdx[f.Name] = f
}

// RemoveFunc deletes the named function, reporting whether it existed.
// Dangling references in remaining functions (calls, FuncRefs) are the
// caller's responsibility to reject — Verify reports them.
func (m *Module) RemoveFunc(name string) bool {
	old := m.funcIdx[name]
	if old == nil {
		return false
	}
	delete(m.funcIdx, name)
	for i, f := range m.Funcs {
		if f == old {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			break
		}
	}
	return true
}

// writeHeader renders the module's struct layouts and globals.
func (m *Module) writeHeader(b *strings.Builder) {
	fmt.Fprintf(b, "; module %s\n", m.Name)
	names := make([]string, 0, len(m.Structs))
	for n := range m.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(m.Structs[n].Layout())
		b.WriteString("\n")
	}
	for _, g := range m.Globals {
		fmt.Fprintf(b, "@%s = global %s", g.GName, g.Elem)
		if g.Volatile {
			b.WriteString(" volatile")
		}
		if g.Atomic {
			b.WriteString(" atomic")
		}
		if len(g.Init) > 0 {
			fmt.Fprintf(b, " init %v", g.Init)
		}
		b.WriteString("\n")
	}
}

// EachInstr calls fn for every instruction in the module.
func (m *Module) EachInstr(fn func(*Func, *Instr)) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				fn(f, in)
			}
		}
	}
}

// Reachable returns the functions reachable from the named entries:
// direct calls by name plus every function whose reference appears as
// an operand (spawn targets, stored function pointers). That errs on
// the inclusive side. Unknown entry names reach nothing.
func (m *Module) Reachable(entries []string) map[*Func]bool {
	in := make(map[*Func]bool, len(entries))
	var stack []*Func
	push := func(f *Func) {
		if f != nil && !in[f] {
			in[f] = true
			stack = append(stack, f)
		}
	}
	for _, e := range entries {
		push(m.Func(e))
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.Instrs(func(instr *Instr) {
			if instr.Op == OpCall {
				push(m.Func(instr.Callee))
			}
			for _, a := range instr.Args {
				if fr, ok := a.(*FuncRef); ok {
					push(m.Func(fr.Name))
				}
			}
		})
	}
	return in
}

// NumInstrs returns the total instruction count of the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// String renders the whole module in AIR textual syntax.
func (m *Module) String() string {
	var b strings.Builder
	m.writeHeader(&b)
	for _, f := range m.Funcs {
		b.WriteString("\n")
		writeFunc(&b, f)
	}
	return b.String()
}

func writeFunc(b *strings.Builder, f *Func) {
	fmt.Fprintf(b, "define %s @%s(", f.RetTy, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %%%s", p.Ty, p.PName)
	}
	b.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(b, "  %s\n", in)
		}
	}
	b.WriteString("}\n")
}

// FuncString renders a single function in AIR textual syntax.
func FuncString(f *Func) string {
	var b strings.Builder
	writeFunc(&b, f)
	return b.String()
}
