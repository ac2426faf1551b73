package vm

import (
	"repro/internal/ir"
	"repro/internal/memmodel"
)

// AccessKind classifies a dynamic shared-memory operation reported to a
// Hook.
type AccessKind int

// Access kinds.
const (
	// AccessLoad is a load instruction.
	AccessLoad AccessKind = iota
	// AccessStore is a store instruction.
	AccessStore
	// AccessRMW is a successful read-modify-write (atomicrmw, or a
	// cmpxchg whose comparison matched): one atomic read plus one write.
	AccessRMW
	// AccessCasFail is a cmpxchg whose comparison failed: the read
	// happened, no write did.
	AccessCasFail
)

func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessRMW:
		return "rmw"
	case AccessCasFail:
		return "cas-fail"
	}
	return "access?"
}

// AccessEvent describes one dynamic shared-memory operation. Events are
// reported only for shared addresses (globals and heap); thread stacks
// are private by construction (the view machine routes them to a flat
// side store) and never appear.
type AccessEvent struct {
	// Thread is the executing thread's index.
	Thread int
	// Addr is the cell address accessed.
	Addr memmodel.Addr
	// Cell is the VM's dense number for Addr (see memmodel.Cell), valid
	// for the current execution; observers index per-location state by
	// it.
	Cell memmodel.Cell
	// Kind classifies the operation.
	Kind AccessKind
	// Ord is the static memory ordering of the instruction; observers
	// map it to the model's effective ordering themselves
	// (memmodel.EffectiveOrd / memmodel.RMWOrd).
	Ord ir.MemOrder
	// ReadTS is the view-machine timestamp of the message read (loads,
	// RMWs); -1 when no read happened or the flat backend is in use.
	ReadTS int
	// WriteTS is the view-machine timestamp of the message written
	// (stores, successful RMWs); -1 when no write happened or the flat
	// backend is in use.
	WriteTS int
	// Instr is the access site (provenance: Instr.Blk and Instr.Blk.Fn
	// identify the block and function).
	Instr *ir.Instr
}

// Hook observes an execution's synchronization-relevant events. All
// methods are called synchronously on the executing goroutine, in
// program order per thread. A nil Options.Hook costs a single pointer
// check per event site; instrumentation is otherwise zero-cost.
type Hook interface {
	// OnAccess reports a shared-memory access.
	OnAccess(ev AccessEvent)
	// OnFence reports a fence instruction with its static ordering.
	OnFence(thread int, ord ir.MemOrder)
	// OnSpawn reports thread creation; the child inherits the parent's
	// synchronization state.
	OnSpawn(parent, child int)
	// OnJoin reports that thread t synchronized with finished thread
	// joined (the join() builtin, once per finished thread).
	OnJoin(t, joined int)
	// OnBarrier reports a barrier release synchronizing all
	// participants with one another.
	OnBarrier(participants []int)
}

// hookAccess reports a shared access when a hook is installed. The
// caller guarantees v.hook != nil checks stay on the fast path — this
// helper is only reached behind them.
func (v *VM) hookAccess(t *thread, a memmodel.Addr, c memmodel.Cell, kind AccessKind, in *ir.Instr, rts, wts int) {
	v.hook.OnAccess(AccessEvent{
		Thread: t.id, Addr: a, Cell: c, Kind: kind, Ord: in.Ord,
		ReadTS: rts, WriteTS: wts, Instr: in,
	})
}
