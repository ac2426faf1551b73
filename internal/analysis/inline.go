package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// The pre-analysis inliner's limits.
const (
	// inlineMaxCalleeInstrs bounds the size of functions considered for
	// inlining.
	inlineMaxCalleeInstrs = 200
	// inlineRounds bounds the number of bottom-up passes (nested helpers
	// need one round per nesting level).
	inlineRounds = 3
)

// Inline performs conservative function inlining on the module so that
// loops spanning multiple functions become visible to the
// intra-procedural spinloop analysis (paper section 3.5: "we inline
// functions where possible beforehand"). It returns the number of call
// sites inlined. Recursive functions are never inlined.
func Inline(m *ir.Module) int {
	recursive := findRecursive(m)
	total := 0
	for round := 0; round < inlineRounds; round++ {
		n := 0
		for _, f := range m.Funcs {
			n += inlineInto(m, f, recursive, inlineMaxCalleeInstrs)
		}
		total += n
		if n == 0 {
			break
		}
	}
	return total
}

// findRecursive marks every function on a call-graph cycle.
func findRecursive(m *ir.Module) map[*ir.Func]bool {
	callees := make(map[*ir.Func][]*ir.Func)
	for _, f := range m.Funcs {
		seen := map[*ir.Func]bool{}
		f.Instrs(func(in *ir.Instr) {
			if in.Op != ir.OpCall {
				return
			}
			if g := m.Func(in.Callee); g != nil && !seen[g] {
				seen[g] = true
				callees[f] = append(callees[f], g)
			}
		})
	}
	recursive := make(map[*ir.Func]bool)
	// For each function, check whether it can reach itself.
	for _, f := range m.Funcs {
		if recursive[f] {
			continue
		}
		seen := map[*ir.Func]bool{}
		stack := append([]*ir.Func(nil), callees[f]...)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g == f {
				recursive[f] = true
				break
			}
			if seen[g] {
				continue
			}
			seen[g] = true
			stack = append(stack, callees[g]...)
		}
	}
	return recursive
}

func inlineInto(m *ir.Module, f *ir.Func, recursive map[*ir.Func]bool, maxInstrs int) int {
	n := 0
	// Collect candidate call sites first; inlining mutates the block
	// list.
	var sites []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op != ir.OpCall {
			return
		}
		g := m.Func(in.Callee)
		if g == nil || g == f || recursive[g] {
			return
		}
		if g.NumInstrs() > maxInstrs {
			return
		}
		sites = append(sites, in)
	})
	for _, call := range sites {
		inlineCall(m, f, call)
		n++
	}
	return n
}

// inlineCall splices the body of the callee in place of the call.
func inlineCall(m *ir.Module, f *ir.Func, call *ir.Instr) {
	g := m.Func(call.Callee)
	blk := call.Blk
	// Locate the call within its block.
	pos := -1
	for i, in := range blk.Instrs {
		if in == call {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("ir: call %s not found in its block", call))
	}
	// Split the block: blk keeps the prefix, cont receives the suffix.
	cont := f.NewBlock(blk.Name + ".cont" + fmt.Sprint(call.ID))
	cont.Instrs = append(cont.Instrs, blk.Instrs[pos+1:]...)
	for _, in := range cont.Instrs {
		in.Blk = cont
	}
	blk.Instrs = blk.Instrs[:pos]

	// Return slot for non-void callees.
	var retSlot *ir.Instr
	if _, isVoid := g.RetTy.(*ir.VoidType); !isVoid {
		retSlot = &ir.Instr{
			Op: ir.OpAlloca, ID: f.NextID(), Blk: blk,
			Ty: ir.PointerTo(g.RetTy), AllocElem: g.RetTy,
		}
		blk.Instrs = append(blk.Instrs, retSlot)
	}

	// Clone callee blocks.
	blockMap := make(map[*ir.Block]*ir.Block, len(g.Blocks))
	for _, b := range g.Blocks {
		blockMap[b] = f.NewBlock(fmt.Sprintf("%s.%s.%d", g.Name, b.Name, call.ID))
	}
	instrMap := make(map[*ir.Instr]*ir.Instr, g.NumInstrs())
	mapVal := func(v ir.Value) ir.Value {
		switch x := v.(type) {
		case *ir.Param:
			return call.Args[x.Index]
		case *ir.Instr:
			if ni, ok := instrMap[x]; ok {
				return ni
			}
			return x
		}
		return v
	}
	// Pass 1: create instruction shells so cross-block forward references
	// (e.g. a loop condition using a value from a later-listed block)
	// resolve during argument mapping.
	type retStore struct {
		ni   *ir.Instr
		orig ir.Value
	}
	var retStores []retStore
	for _, b := range g.Blocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			if in.Op == ir.OpRet {
				if retSlot != nil && len(in.Args) == 1 {
					st := &ir.Instr{Op: ir.OpStore, ID: f.NextID(), Blk: nb, Ty: ir.Void}
					retStores = append(retStores, retStore{ni: st, orig: in.Args[0]})
					nb.Instrs = append(nb.Instrs, st)
				}
				br := &ir.Instr{Op: ir.OpBr, ID: f.NextID(), Blk: nb, Ty: ir.Void, Then: cont}
				nb.Instrs = append(nb.Instrs, br)
				continue
			}
			ni := &ir.Instr{
				Op: in.Op, ID: f.NextID(), Blk: nb, Ty: in.Ty,
				AllocElem: in.AllocElem, Ord: in.Ord, Volatile: in.Volatile,
				BinKind: in.BinKind, Pred: in.Pred, RMW: in.RMW,
				GEPBase: in.GEPBase, Callee: in.Callee, Marks: in.Marks,
			}
			if in.Path != nil {
				ni.Path = append([]ir.GEPStep(nil), in.Path...)
			}
			if in.Then != nil {
				ni.Then = blockMap[in.Then]
			}
			if in.Else != nil {
				ni.Else = blockMap[in.Else]
			}
			instrMap[in] = ni
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	// Pass 2: fill in operands.
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			ni, ok := instrMap[in]
			if !ok || len(in.Args) == 0 {
				continue
			}
			ni.Args = make([]ir.Value, len(in.Args))
			for j, a := range in.Args {
				ni.Args[j] = mapVal(a)
			}
		}
	}
	for _, rs := range retStores {
		rs.ni.Args = []ir.Value{retSlot, mapVal(rs.orig)}
	}

	// Jump into the inlined body.
	br := &ir.Instr{Op: ir.OpBr, ID: f.NextID(), Blk: blk, Ty: ir.Void, Then: blockMap[g.Entry()]}
	blk.Instrs = append(blk.Instrs, br)

	// Replace uses of the call result with a load of the return slot.
	if retSlot != nil {
		ld := &ir.Instr{
			Op: ir.OpLoad, ID: f.NextID(), Blk: cont, Ty: g.RetTy,
			Args: []ir.Value{retSlot},
		}
		cont.Instrs = append([]*ir.Instr{ld}, cont.Instrs...)
		f.Instrs(func(in *ir.Instr) {
			if in == ld {
				return
			}
			for j, a := range in.Args {
				if a == call {
					in.Args[j] = ld
				}
			}
		})
	}
}
