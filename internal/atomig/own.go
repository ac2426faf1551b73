// Function ownership: which functions of the port's module the pipeline
// may write. Port owns every function of the module it is given.
// PortShared's module starts out sharing every function with its
// source, and a shared function is copied just before the pipeline
// first writes it: up front for what the summaries say detection and
// the merge will write, late (here) for sticky buddies and fences. The
// pointers the pipeline still holds into a function copied late are
// translated by block-order position, the coordinate system the
// detection summaries use; a copy keeps every ID and the order.
package atomig

import (
	"fmt"

	"repro/internal/ir"
)

// owner tracks the ownership of one port's functions.
type owner struct {
	m *ir.Module
	// shared[fi] holds while m.Funcs[fi] is the source's; nil when the
	// port owns every function.
	shared []bool
	// written[fi] is set once the pipeline writes m.Funcs[fi]; the
	// report recounts the barriers of those functions only.
	written []bool
	// index maps every function whose instructions the pipeline may
	// hold — m's, and the shared ones a copy replaced — to its index.
	index map[*ir.Func]int
	// moved maps each shared function copied late to its instructions'
	// counterparts in the copy.
	moved  map[*ir.Func]map[*ir.Instr]*ir.Instr
	copied int
}

func newOwner(m *ir.Module, shared bool) *owner {
	o := &owner{m: m, written: make([]bool, len(m.Funcs)), index: make(map[*ir.Func]int, len(m.Funcs))}
	for fi, f := range m.Funcs {
		o.index[f] = fi
	}
	if shared {
		o.shared = make([]bool, len(m.Funcs))
		for fi := range o.shared {
			o.shared[fi] = true
		}
	}
	return o
}

// isShared reports whether m.Funcs[fi] is still the source's.
func (o *owner) isShared(fi int) bool { return o.shared != nil && o.shared[fi] }

// install puts c, a copy of the shared function fi, in its place.
func (o *owner) install(fi int, c *ir.Func) {
	o.m.SetFunc(fi, c)
	o.shared[fi] = false
	o.index[c] = fi
	o.copied++
}

// ownAll copies every shared function.
func (o *owner) ownAll() {
	for fi, f := range o.m.Funcs {
		if o.isShared(fi) {
			o.install(fi, o.m.CopyFunc(f))
		}
	}
}

// current returns in's counterpart in the copy of its function when
// that function was copied late, else in. It never copies.
func (o *owner) current(in *ir.Instr) *ir.Instr {
	if tr := o.moved[in.Blk.Fn]; tr != nil {
		return tr[in]
	}
	return in
}

// write returns the instruction the pipeline may write in place of in
// and counts its function as written. A shared function is copied and
// installed first, and in's counterpart in the copy is returned.
func (o *owner) write(in *ir.Instr) *ir.Instr {
	in = o.current(in)
	fi, ok := o.index[in.Blk.Fn]
	if !ok {
		panic(fmt.Sprintf("atomig: write to @%s, a function outside the module", in.Blk.Fn.Name))
	}
	o.written[fi] = true
	if !o.isShared(fi) {
		return in
	}
	f := o.m.Funcs[fi]
	c := o.m.CopyFunc(f)
	tr := make(map[*ir.Instr]*ir.Instr, f.NumInstrs())
	for bi, b := range f.Blocks {
		for i, x := range b.Instrs {
			tr[x] = c.Blocks[bi].Instrs[i]
		}
	}
	if o.moved == nil {
		o.moved = make(map[*ir.Func]map[*ir.Instr]*ir.Instr)
	}
	o.moved[f] = tr
	o.install(fi, c)
	return tr[in]
}

// verify checks the functions the port may have written: the whole
// module when the port owns it all, else the copies (the shared
// functions are the source's, verified when it was built).
func (o *owner) verify() error {
	if o.shared == nil {
		return ir.Verify(o.m)
	}
	for fi, f := range o.m.Funcs {
		if !o.shared[fi] {
			if err := ir.VerifyFunc(o.m, f); err != nil {
				return err
			}
		}
	}
	return nil
}
