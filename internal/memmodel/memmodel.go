// Package memmodel implements operational memory-consistency models for
// executing AIR programs: SC, x86-TSO, and an Armv8-like weak memory
// model (WMM). The substrate replaces the Armv8 hardware of the paper's
// evaluation.
//
// The weak models use a view-based presentation (in the style of
// promise-free view machines): memory keeps a per-location history of
// messages; each thread holds a view — the minimum timestamp it may read
// per location. Plain/relaxed loads may read any message no older than
// the view floor (this models load-load, store-load and store-store
// reordering as observed by readers); release stores attach the writer's
// view to the message; acquire loads join the attached view, which is
// what restores the message-passing guarantee. Sequentially consistent
// accesses additionally read the newest message and synchronize through
// a global SC view, modelling Arm's implicit barriers (LDAR/STLR).
// Load buffering (which needs promises) is not modelled; none of the
// paper's bug patterns depend on it.
package memmodel

import "fmt"

// Model selects the memory-consistency model of an execution. The
// models are numbered from 1, so the zero Model means "unset": every
// entry point that takes a Model resolves it once, with Or, to the
// default it documents (docs/MEMORY-MODEL.md lists them).
type Model int

// Supported models.
const (
	// ModelSC executes every access with sequential consistency.
	ModelSC Model = iota + 1
	// ModelTSO models x86-TSO: plain stores behave as release stores,
	// plain loads as acquire loads (store buffering remains visible,
	// message passing is guaranteed), and read-modify-writes are full
	// barriers.
	ModelTSO
	// ModelWMM models an Armv8-like weak model: plain accesses are
	// relaxed and only annotated atomics and fences restore order.
	ModelWMM
)

func (m Model) String() string {
	switch m {
	case ModelSC:
		return "sc"
	case ModelTSO:
		return "tso"
	case ModelWMM:
		return "wmm"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Or returns m, or def when m is the zero (unset) Model.
func (m Model) Or(def Model) Model {
	if m == 0 {
		return def
	}
	return m
}

// Addr is a memory cell address.
type Addr uint64

// Msg is one write in a location's history.
type Msg struct {
	Val int64
	TS  int
	// Rel is the view released with the message (release/SC stores and
	// RMWs); nil for relaxed stores. It is a read-only snapshot.
	Rel []ViewEntry
}

// AccessOrd is the effective ordering of one dynamic access after the
// model's mapping of plain accesses.
type AccessOrd int

// Effective orderings.
const (
	OrdRelaxed AccessOrd = iota
	OrdAcquire
	OrdRelease
	OrdAcqRel
	OrdSC
)

// EffectiveOrd maps a static access ordering (ir.MemOrder numeric
// values, passed as int to avoid an import cycle) under the model.
// plain=0, relaxed=1, acquire=2, release=3, acq_rel=4, seq_cst=5.
func EffectiveOrd(m Model, staticOrd int, isStore bool) AccessOrd {
	if m == ModelSC {
		return OrdSC
	}
	switch staticOrd {
	case 0, 1: // plain / relaxed
		if m == ModelTSO {
			// x86: every store is a release, every load an acquire.
			if isStore {
				return OrdRelease
			}
			return OrdAcquire
		}
		return OrdRelaxed
	case 2:
		return OrdAcquire
	case 3:
		return OrdRelease
	case 4:
		return OrdAcqRel
	default:
		return OrdSC
	}
}

// acquires reports whether the ordering has acquire semantics.
func (o AccessOrd) acquires() bool {
	return o == OrdAcquire || o == OrdAcqRel || o == OrdSC
}

// releases reports whether the ordering has release semantics.
func (o AccessOrd) releases() bool {
	return o == OrdRelease || o == OrdAcqRel || o == OrdSC
}

// Acquires reports whether the ordering has acquire semantics. Exported
// for clients that mirror the machine's synchronization (the race
// detector's happens-before tracking).
func (o AccessOrd) Acquires() bool { return o.acquires() }

// Releases reports whether the ordering has release semantics.
func (o AccessOrd) Releases() bool { return o.releases() }

// RMWOrd maps a static read-modify-write ordering under the model: on
// TSO (x86 lock prefix) and SC machines read-modify-writes are full
// barriers; only WMM honors the annotated ordering.
func RMWOrd(m Model, staticOrd int) AccessOrd {
	if m != ModelWMM {
		return OrdSC
	}
	return EffectiveOrd(m, staticOrd, true)
}
