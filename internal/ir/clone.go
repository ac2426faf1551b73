package ir

import "fmt"

// CloneModule deep-copies a module. Transformation pipelines run on a
// clone so that the original, Naïve, and AtoMig variants of a program can
// all be produced from a single compile, exactly as the paper's
// evaluation compares variants of one build.
//
// A malformed source module (duplicate global or function names) yields
// an error rather than a panic; callers holding a verified module can
// use MustClone.
func CloneModule(m *Module) (*Module, error) {
	out := NewModule(m.Name)
	for name, st := range m.Structs {
		out.Structs[name] = st // struct types are immutable, share them
	}
	for _, g := range m.Globals {
		ng := &Global{GName: g.GName, Elem: g.Elem, Volatile: g.Volatile, Atomic: g.Atomic}
		if g.Init != nil {
			ng.Init = append([]int64(nil), g.Init...)
		}
		if err := out.AddGlobal(ng); err != nil {
			return nil, fmt.Errorf("ir: clone: %w", err)
		}
	}
	// First create all function shells so calls and FuncRefs can resolve.
	for _, f := range m.Funcs {
		if err := out.AddFunc(shell(f)); err != nil {
			return nil, fmt.Errorf("ir: clone: %w", err)
		}
	}
	for _, f := range m.Funcs {
		cloneFuncBody(out, f, out.Func(f.Name))
	}
	return out, nil
}

// MustClone clones a module known to be well-formed (already verified or
// produced by a verifying frontend); a clone failure on such a module is
// an internal invariant violation, so it panics — callers at public
// entry points sit behind diag guards that contain it.
func MustClone(m *Module) *Module {
	out, err := CloneModule(m)
	if err != nil {
		panic(err)
	}
	return out
}

// shell returns a body-less copy of f: its name, signature and
// instruction-ID watermark.
func shell(f *Func) *Func {
	nf := &Func{Name: f.Name, RetTy: f.RetTy, nextID: f.nextID}
	for _, p := range f.Params {
		nf.Params = append(nf.Params, &Param{PName: p.PName, Ty: p.Ty, Index: p.Index})
	}
	return nf
}

// cloneFuncBody clones the body of src into dst, a shell of src
// registered in outMod, binding globals and function references to
// outMod's by name. A reference to a function outMod lacks keeps src's
// target, so Verify reports it by name. Used by CloneModule and
// ReplaceFuncs.
func cloneFuncBody(outMod *Module, src, dst *Func) {
	blockMap := make(map[*Block]*Block, len(src.Blocks))
	blocks := make([]Block, len(src.Blocks))
	dst.Blocks = make([]*Block, len(src.Blocks))
	nInstr := 0
	for i, b := range src.Blocks {
		blocks[i] = Block{Name: b.Name, Fn: dst}
		dst.Blocks[i] = &blocks[i]
		blockMap[b] = &blocks[i]
		nInstr += len(b.Instrs)
	}
	// Instruction IDs are unique within a function (builder and parser
	// both guarantee it), so the old->new mapping is an ID-indexed
	// slice — clones are on the daemon's per-request hot path, and a
	// map here costs more than the rest of the copy. instrMap is the
	// fallback for out-of-range IDs only.
	byID := make([]*Instr, src.nextID)
	var instrMap map[*Instr]*Instr
	paramMap := make(map[*Param]*Param, len(src.Params))
	for i, p := range src.Params {
		paramMap[p] = dst.Params[i]
	}
	mapVal := func(v Value) Value {
		switch x := v.(type) {
		case *ConstInt:
			return x
		case *Global:
			return outMod.Global(x.GName)
		case *Param:
			return paramMap[x]
		case *FuncRef:
			if fn := outMod.Func(x.Fn.Name); fn != nil {
				return &FuncRef{Fn: fn}
			}
			return x
		case *Instr:
			if x.ID >= 0 && x.ID < len(byID) && byID[x.ID] != nil {
				return byID[x.ID]
			}
			return instrMap[x]
		}
		return v
	}
	// Blocks, instructions, the blocks' instruction lists and the operand
	// slices come out of per-function arenas: a clone-heavy caller (the
	// porting daemon clones a module per request) otherwise pays an
	// allocation per block and instruction, and the resulting GC churn
	// costs more than the copy itself. Each block's list is capped at its
	// length, so a later insertion into one block reallocates it instead
	// of writing into the next block's list.
	arena := make([]Instr, nInstr)
	list := make([]*Instr, nInstr)
	// Two passes: create instruction shells first so forward references
	// (uses of results defined later in block order, which cannot happen,
	// but branch targets can) resolve, counting the operands; they are
	// filled in pass two.
	k, nArg := 0, 0
	for _, b := range src.Blocks {
		nb := blockMap[b]
		nb.Instrs = list[k : k : k+len(b.Instrs)]
		for _, in := range b.Instrs {
			ni := &arena[k]
			k++
			*ni = Instr{
				Op: in.Op, ID: in.ID, Blk: nb, Ty: in.Ty,
				AllocElem: in.AllocElem, Ord: in.Ord, Volatile: in.Volatile,
				BinKind: in.BinKind, Pred: in.Pred, RMW: in.RMW,
				GEPBase: in.GEPBase, Callee: in.Callee, Marks: in.Marks,
			}
			if in.Path != nil {
				ni.Path = append([]GEPStep(nil), in.Path...)
			}
			if in.Then != nil {
				ni.Then = blockMap[in.Then]
			}
			if in.Else != nil {
				ni.Else = blockMap[in.Else]
			}
			if in.ID >= 0 && in.ID < len(byID) {
				byID[in.ID] = ni
			} else {
				if instrMap == nil {
					instrMap = make(map[*Instr]*Instr)
				}
				instrMap[in] = ni
			}
			nb.Instrs = append(nb.Instrs, ni)
			nArg += len(in.Args)
		}
	}
	argBuf := make([]Value, nArg)
	off := 0
	for _, b := range src.Blocks {
		nb := blockMap[b]
		for i, in := range b.Instrs {
			ni := nb.Instrs[i]
			if len(in.Args) > 0 {
				ni.Args = argBuf[off : off+len(in.Args) : off+len(in.Args)]
				off += len(in.Args)
				for j, a := range in.Args {
					ni.Args[j] = mapVal(a)
				}
			}
		}
	}
}
