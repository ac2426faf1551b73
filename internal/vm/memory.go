package vm

import (
	"repro/internal/ir"
	"repro/internal/memmodel"
)

// The VM owns the memory layout, so it numbers shared cells itself
// (memmodel.Cell): globals first, from globalBase in module order, then
// heap cells from heapBase as malloc bumps heapNext. Both regions are
// contiguous, so a cell's number is arithmetic on its address, and the
// VM, the view machine and the race detector index their per-cell state
// by the same number. Thread stacks stay per thread: stack slots are
// thread-local in the corpus (data is shared through globals and the
// heap), so they never reach the view machine or the detector, and each
// thread keeps its slots in a slice indexed by offset. Any other
// address — wild pointer arithmetic in fuzzed and minimized modules, a
// heap address past heapNext, a stack slot above its thread's
// high-water mark — is an overflow cell, numbered on first touch
// through a small table: it reads its initial value and keeps a history
// of its own, and it never aliases another cell.

// maxDenseCells bounds the dense cell numbers, so one wild heap address
// cannot grow the per-cell tables without bound; cells past it are
// overflow cells.
const maxDenseCells = 1 << 20

// cellState is the per-cell state the VM keeps itself: the value (all
// cells under the flat backend, stack cells under the view machine) and
// the cost model's line-ownership sketch.
type cellState struct {
	val int64
	// writer is the last writing thread plus one (0: never written).
	writer int32
	// shared records the threads (bit id%32) that re-read the cell since
	// its last write — a MESI shared-state sketch.
	shared uint32
	// multi marks cells written more than once, separating actively
	// mutated cells (whose cross-thread reads ping-pong) from write-once
	// data (whose cold-fill cost the baseline pays too).
	multi bool
	// touched marks shared cells listed in VM.touched.
	touched bool
}

// cellHash mixes one nonzero cell into a well-distributed 64-bit value
// so the XOR multiset combine in VM.flatAcc is collision-resistant.
func cellHash(a memmodel.Addr, v int64) uint64 {
	return memmodel.Mix64(uint64(a)*0x9e3779b97f4a7c15 ^ uint64(v))
}

func isStackAddr(a memmodel.Addr) bool { return a >= stackBase }

// lookupCell returns the cell number of shared address a without
// creating an overflow cell.
func (v *VM) lookupCell(a memmodel.Addr) (memmodel.Cell, bool) {
	if len(v.overflow) != 0 {
		// An overflow cell keeps its number for the whole execution, even
		// once a later malloc brings its address into the heap.
		if c, ok := v.overflow[a]; ok {
			return c, true
		}
	}
	if off := a - globalBase; off < v.nGlobal {
		return memmodel.Cell(off), true
	}
	if off := a - heapBase; off < v.heapCells {
		return memmodel.Cell(v.nGlobal + off), true
	}
	return 0, false
}

// sharedCell returns the cell number and state of shared (non-stack)
// address a, numbering an overflow cell on first touch.
func (v *VM) sharedCell(a memmodel.Addr) (memmodel.Cell, *cellState) {
	c, ok := v.lookupCell(a)
	if !ok {
		c = v.newOverflow(a)
	}
	return c, v.cell(c)
}

// cell returns the state of cell c, listing it for Reset.
func (v *VM) cell(c memmodel.Cell) *cellState {
	cs := v.cells.At(c)
	if !cs.touched {
		cs.touched = true
		v.touched = append(v.touched, c)
	}
	return cs
}

// newOverflow numbers overflow address a and applies its initial value.
func (v *VM) newOverflow(a memmodel.Addr) memmodel.Cell {
	if v.overflow == nil {
		v.overflow = make(map[memmodel.Addr]memmodel.Cell)
	}
	c := ^memmodel.Cell(len(v.overflow))
	v.overflow[a] = c
	if init := v.initOver[a]; init != 0 {
		v.cell(c).val = init
		if v.mc != nil {
			v.mc.SetInit(c, init)
		}
	}
	return c
}

// stackCell returns the state of stack address a. grow extends the
// owning thread's slots to reach a (alloca); otherwise a slot above the
// thread's high-water mark, or in the region of a thread that does not
// exist, is an overflow cell.
func (v *VM) stackCell(a memmodel.Addr, grow bool) *cellState {
	if len(v.overflow) != 0 {
		if c, ok := v.overflow[a]; ok {
			return v.cell(c)
		}
	}
	rel := uint64(a - stackBase)
	if k := rel / stackSize; k < uint64(len(v.threads)) {
		t := v.threads[k]
		off := int(rel % stackSize)
		if off < len(t.stack) {
			return &t.stack[off]
		}
		if grow {
			t.stack = growCells(t.stack, off+1)
			return &t.stack[off]
		}
	}
	return v.cell(v.newOverflow(a))
}

// growCells extends a thread's stack slots to n, reusing capacity
// (recycleThread clears the slots it truncates).
func growCells(xs []cellState, n int) []cellState {
	if n <= cap(xs) {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]cellState, n-cap(xs))...)
}

// setFlat writes a flat-stored cell and maintains the incremental hash.
// Zero-valued cells contribute nothing, matching the canonical "hash of
// nonzero cells" semantics regardless of whether a zero is stored
// explicitly.
func (v *VM) setFlat(a memmodel.Addr, cs *cellState, val int64) {
	old := cs.val
	if old == val {
		return
	}
	if old != 0 {
		v.flatAcc ^= cellHash(a, old)
	}
	if val != 0 {
		v.flatAcc ^= cellHash(a, val)
	}
	cs.val = val
}

// resolve returns the cell state of address a and whether a is shared
// (not a stack slot); a shared address also gets its cell number.
func (v *VM) resolve(a memmodel.Addr) (memmodel.Cell, *cellState, bool) {
	if isStackAddr(a) {
		return 0, v.stackCell(a, false), false
	}
	c, cs := v.sharedCell(a)
	return c, cs, true
}

// The memory operations below run on a resolved cell: on the view
// machine for a shared cell when there is one, on the cell's flat value
// otherwise. They report the view machine's timestamps of the messages
// read and written (-1 when no message was involved); the event hook
// uses them to follow reads-from edges precisely.

func (v *VM) eff(ord ir.MemOrder, isStore bool) memmodel.AccessOrd {
	return memmodel.EffectiveOrd(v.opts.Model, int(ord), isStore)
}

func (v *VM) load(t *thread, c memmodel.Cell, cs *cellState, a memmodel.Addr, shared bool, ord ir.MemOrder) (int64, int) {
	if v.mc == nil || !shared {
		return cs.val, -1
	}
	return v.mc.LoadT(t.mm, c, a, v.eff(ord, false))
}

func (v *VM) store(t *thread, c memmodel.Cell, cs *cellState, a memmodel.Addr, shared bool, val int64, ord ir.MemOrder) int {
	if v.mc == nil || !shared {
		v.setFlat(a, cs, val)
		return -1
	}
	return v.mc.StoreT(t.mm, c, a, val, v.eff(ord, true))
}

func (v *VM) cmpxchg(t *thread, c memmodel.Cell, cs *cellState, a memmodel.Addr, shared bool, expected, nv int64, ord ir.MemOrder) (int64, bool, int, int) {
	if v.mc == nil || !shared {
		old := cs.val
		if old != expected {
			return old, false, -1, -1
		}
		v.setFlat(a, cs, nv)
		return old, true, -1, -1
	}
	r := v.mc.CmpXchg(t.mm, c, a, expected, nv, memmodel.RMWOrd(v.opts.Model, int(ord)))
	return r.Old, r.Swapped, r.ReadTS, r.WriteTS
}

func (v *VM) rmw(t *thread, c memmodel.Cell, cs *cellState, a memmodel.Addr, shared bool, f func(int64) int64, ord ir.MemOrder) (int64, int, int) {
	if v.mc == nil || !shared {
		old := cs.val
		v.setFlat(a, cs, f(old))
		return old, -1, -1
	}
	r := v.mc.RMWT(t.mm, c, a, f, memmodel.RMWOrd(v.opts.Model, int(ord)))
	return r.Old, r.ReadTS, r.WriteTS
}

// final reads the newest value of global address a without
// memory-model effects (final-state snapshots for the differential
// harness).
func (v *VM) final(a memmodel.Addr) int64 {
	c, ok := v.lookupCell(a)
	if !ok {
		return v.initOver[a]
	}
	if v.mc != nil {
		return v.mc.Final(c)
	}
	if cs := v.cells.Has(c); cs != nil {
		return cs.val
	}
	return 0
}

// initOf returns the initial value of cell c.
func (v *VM) initOf(c memmodel.Cell) int64 {
	if c >= 0 && int(c) < len(v.initVals) {
		return v.initVals[c]
	}
	return 0
}

// resetMemory restores every cell the execution touched to its initial
// state, keeping the tables.
func (v *VM) resetMemory() {
	for _, c := range v.touched {
		cs := v.cells.At(c)
		*cs = cellState{}
		if v.mc == nil {
			cs.val = v.initOf(c)
		}
	}
	v.touched = v.touched[:0]
	clear(v.overflow)
	v.flatAcc = v.initAcc
	if v.mc != nil {
		v.mc.Reset()
	}
}

// stateAcc returns the memory contribution to StateHash: the view
// machine's hash of the shared cells, XOR the flat hash of the cells
// stored flat. The two hash disjoint address ranges with different
// mixers, so a plain XOR cannot cancel across them.
func (v *VM) stateAcc() uint64 {
	if v.mc == nil {
		return v.flatAcc
	}
	return v.mc.StateAcc() ^ v.flatAcc
}
