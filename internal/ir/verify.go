package ir

import (
	"fmt"
)

// Verify checks module well-formedness: every block is terminated, every
// branch targets a block of the same function, operand types are
// consistent for memory operations, called and referenced functions
// exist (or are known builtins), calls pass as many arguments as their
// callee has parameters and expect the type it returns, and instruction
// result IDs are unique within each function. It reports the first
// failing function in module order.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(m, f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks one function of m as Verify does. The only checks
// that read beyond f are that its callees and referenced functions are
// in m and that its calls match their callees' signatures, so
// after an edit of a verified module only the edited functions and
// those that call or reference an edited name need checking.
func VerifyFunc(m *Module, f *Func) error {
	if err := verifyFunc(m, f); err != nil {
		return fmt.Errorf("ir: function @%s: %w", f.Name, err)
	}
	return nil
}

// Builtins recognized by the VM and the analyses. Values are result
// types.
var Builtins = map[string]Type{
	"assert":  Void, // assert(cond): fail the execution if cond == 0
	"spawn":   Void, // spawn(@fn): start a new thread
	"join":    Void, // join(): wait for all spawned threads
	"malloc":  PointerTo(I64),
	"free":    Void,
	"tid":     I64,  // current thread id
	"print":   Void, // debugging aid
	"yield":   Void, // scheduling hint, no memory effect
	"pause":   Void, // cpu_relax-style hint, no memory effect
	"nondet":  I64,  // nondeterministic input (model checking)
	"barrier": Void, // barrier(n): rendezvous of n threads (pthread_barrier-style)
	"asm":     Void, // opaque inline assembly the frontend could not map
	// compiler_barrier marks an asm volatile("":::"memory"): no runtime
	// effect, but a hint the discussion-section extension uses as an
	// additional seed for synchronization detection.
	"compiler_barrier": Void,
}

func verifyFunc(m *Module, f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	blocks := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blocks[b] = true
	}
	// IDs below the watermark are tracked in a slice; hand-built IR may
	// carry any other ID, which the map tracks.
	seen := make([]bool, f.nextID)
	var seenElse map[int]bool
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %%%s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.ID >= 0 && in.ID < len(seen) {
				if seen[in.ID] {
					return fmt.Errorf("duplicate instruction id %%t%d", in.ID)
				}
				seen[in.ID] = true
			} else {
				if seenElse[in.ID] {
					return fmt.Errorf("duplicate instruction id %%t%d", in.ID)
				}
				if seenElse == nil {
					seenElse = make(map[int]bool)
				}
				seenElse[in.ID] = true
			}
			if in.Blk != b {
				return fmt.Errorf("instruction %%t%d has wrong parent block", in.ID)
			}
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				return fmt.Errorf("block %%%s: terminator misplaced at %d (%s)", b.Name, i, in)
			}
			if err := verifyInstr(m, f, blocks, in); err != nil {
				return fmt.Errorf("%s: %w", in, err)
			}
		}
	}
	return nil
}

func verifyInstr(m *Module, f *Func, blocks map[*Block]bool, in *Instr) error {
	for _, a := range in.Args {
		if a == nil {
			return fmt.Errorf("nil operand")
		}
		if r, ok := a.(*FuncRef); ok && m.Func(r.Name) == nil {
			return fmt.Errorf("reference to unknown function @%s", r.Name)
		}
	}
	switch in.Op {
	case OpAlloca:
		if in.AllocElem == nil {
			return fmt.Errorf("alloca without element type")
		}
	case OpLoad:
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("load address is not a pointer")
		}
	case OpStore:
		pt := Pointee(in.Args[0].Type())
		if pt == nil {
			return fmt.Errorf("store address is not a pointer")
		}
	case OpCmpXchg:
		if len(in.Args) != 3 {
			return fmt.Errorf("cmpxchg needs 3 operands")
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("cmpxchg address is not a pointer")
		}
		if !in.Ord.Atomic() {
			return fmt.Errorf("cmpxchg must be atomic")
		}
	case OpRMW:
		if len(in.Args) != 2 {
			return fmt.Errorf("atomicrmw needs 2 operands")
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("atomicrmw address is not a pointer")
		}
		if !in.Ord.Atomic() {
			return fmt.Errorf("atomicrmw must be atomic")
		}
	case OpFence:
		if !in.Ord.Atomic() {
			return fmt.Errorf("fence must have an atomic ordering")
		}
	case OpGEP:
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("gep base is not a pointer")
		}
		dyn := 0
		for _, st := range in.Path {
			if st.Field < 0 {
				dyn++
			}
		}
		if len(in.Args) != 1+dyn {
			return fmt.Errorf("gep has %d args, expected %d", len(in.Args), 1+dyn)
		}
	case OpCall:
		if g := m.Func(in.Callee); g != nil {
			if len(in.Args) != len(g.Params) {
				return fmt.Errorf("call to @%s passes %d arguments, want %d", in.Callee, len(in.Args), len(g.Params))
			}
			if !TypesEqual(in.Ty, g.RetTy) {
				return fmt.Errorf("call to @%s expects %s, the function returns %s", in.Callee, in.Ty, g.RetTy)
			}
		} else if _, ok := Builtins[in.Callee]; !ok {
			return fmt.Errorf("call to unknown function @%s", in.Callee)
		}
	case OpBr:
		if in.Then == nil || !blocks[in.Then] {
			return fmt.Errorf("branch to foreign or nil block")
		}
		if in.Else != nil {
			if !blocks[in.Else] {
				return fmt.Errorf("branch to foreign else block")
			}
			if len(in.Args) != 1 {
				return fmt.Errorf("conditional branch needs a condition")
			}
		}
	case OpRet:
		// Void or value returns are both accepted; the frontend enforces
		// signature conformance.
	case OpBin, OpICmp:
		if len(in.Args) != 2 {
			return fmt.Errorf("binary op needs 2 operands")
		}
	}
	return nil
}
