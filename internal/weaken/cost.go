// Static cycle-cost model: per-architecture weights for atomic
// orderings and fences, summed over a module's static instruction
// sites. The dynamic cycle model in internal/vm (vm.Costs) prices one
// *execution*; this model prices the *program text*, which is what the
// optimizer minimizes — a weakening is a win if it lowers the static
// synchronization cost, whatever the workload, and the weights keep
// wins measurable without hardware.
//
// The relative weights follow the same Arm barrier study the dynamic
// model mirrors (Liu et al. 2020): implicit barriers (LDAR/STLR, SC
// atomics) are cheaper than explicit DMB fences, acquire-only and
// release-only forms are cheaper than their bidirectional versions,
// and relaxed atomics cost the same as plain accesses. Every ladder
// the optimizer walks (seq_cst → acq_rel → acquire/release → relaxed,
// fence deletion) is strictly decreasing under every model — enforced
// by TestCostModelsMonotone — so an accepted weakening always lowers
// the module cost and the greedy loop terminates.
package weaken

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// CostModel is the static weight table of one target architecture.
type CostModel struct {
	// Name identifies the architecture preset ("armv8", "power", ...).
	Name string

	// Loads, by static ordering.
	LoadPlain   int64 // plain or relaxed: LDR
	LoadAcquire int64 // LDAR (or LDAPR)
	LoadSC      int64 // LDAR + SC participation

	// Stores, by static ordering.
	StorePlain   int64 // plain or relaxed: STR
	StoreRelease int64 // STLR
	StoreSC      int64 // STLR + SC participation

	// Read-modify-writes (cmpxchg, atomicrmw), by static ordering.
	RMWRelaxed int64 // LDXR/STXR pair
	RMWAcquire int64 // LDAXR/STXR
	RMWRelease int64 // LDXR/STLXR
	RMWAcqRel  int64 // LDAXR/STLXR
	RMWSC      int64 // LDAXR/STLXR + SC participation

	// Explicit fences, by static ordering. A deleted fence costs 0.
	FenceAcquire int64 // DMB ISHLD
	FenceRelease int64 // DMB ISHST
	FenceAcqRel  int64 // DMB ISH
	FenceSC      int64 // DMB ISH + SC participation
}

// archModels is the preset registry. The relative spreads differ per
// architecture: POWER pays more for full barriers (hwsync) relative to
// lwsync than Armv8 pays for DMB ISH relative to one-way barriers,
// and RISC-V WMO prices all fences as variants of the FENCE
// instruction with closer spreads.
func archModels() []CostModel {
	return []CostModel{
		{
			Name:      "armv8",
			LoadPlain: 1, LoadAcquire: 3, LoadSC: 4,
			StorePlain: 1, StoreRelease: 5, StoreSC: 6,
			RMWRelaxed: 8, RMWAcquire: 9, RMWRelease: 10, RMWAcqRel: 11, RMWSC: 12,
			FenceAcquire: 2, FenceRelease: 3, FenceAcqRel: 4, FenceSC: 5,
		},
		{
			Name:      "power",
			LoadPlain: 1, LoadAcquire: 4, LoadSC: 7,
			StorePlain: 1, StoreRelease: 5, StoreSC: 8,
			RMWRelaxed: 9, RMWAcquire: 11, RMWRelease: 12, RMWAcqRel: 14, RMWSC: 17,
			FenceAcquire: 3, FenceRelease: 3, FenceAcqRel: 5, FenceSC: 9,
		},
		{
			Name:      "riscv-wmo",
			LoadPlain: 1, LoadAcquire: 3, LoadSC: 5,
			StorePlain: 1, StoreRelease: 4, StoreSC: 6,
			RMWRelaxed: 7, RMWAcquire: 8, RMWRelease: 9, RMWAcqRel: 10, RMWSC: 12,
			FenceAcquire: 2, FenceRelease: 2, FenceAcqRel: 3, FenceSC: 4,
		},
	}
}

// DefaultArch is the architecture the optimizer prices against when
// none is requested — the paper's evaluation target.
const DefaultArch = "armv8"

// Arch resolves an architecture preset by name ("" = DefaultArch).
func Arch(name string) (CostModel, error) {
	if name == "" {
		name = DefaultArch
	}
	for _, m := range archModels() {
		if m.Name == name {
			return m, nil
		}
	}
	return CostModel{}, fmt.Errorf("weaken: unknown arch %q (have %s)", name, strings.Join(ArchNames(), ", "))
}

// ArchNames lists the preset names, sorted.
func ArchNames() []string {
	ms := archModels()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// accessCost prices one load or store site.
func (c CostModel) accessCost(ord ir.MemOrder, isStore bool) int64 {
	if isStore {
		switch ord {
		case ir.NotAtomic, ir.Relaxed:
			return c.StorePlain
		case ir.Release, ir.AcqRel:
			return c.StoreRelease
		default:
			return c.StoreSC
		}
	}
	switch ord {
	case ir.NotAtomic, ir.Relaxed:
		return c.LoadPlain
	case ir.Acquire, ir.AcqRel:
		return c.LoadAcquire
	default:
		return c.LoadSC
	}
}

// rmwCost prices one cmpxchg/atomicrmw site.
func (c CostModel) rmwCost(ord ir.MemOrder) int64 {
	switch ord {
	case ir.NotAtomic, ir.Relaxed:
		return c.RMWRelaxed
	case ir.Acquire:
		return c.RMWAcquire
	case ir.Release:
		return c.RMWRelease
	case ir.AcqRel:
		return c.RMWAcqRel
	default:
		return c.RMWSC
	}
}

// fenceCost prices one fence site.
func (c CostModel) fenceCost(ord ir.MemOrder) int64 {
	switch ord {
	case ir.Acquire:
		return c.FenceAcquire
	case ir.Release:
		return c.FenceRelease
	case ir.AcqRel:
		return c.FenceAcqRel
	default:
		return c.FenceSC
	}
}

// InstrCost prices one instruction site; non-synchronization
// instructions cost 0 (the metric isolates what weakening can change,
// so a 25% reduction means 25% less synchronization, not 25% diluted
// across arithmetic).
func (c CostModel) InstrCost(in *ir.Instr) int64 {
	switch in.Op {
	case ir.OpLoad:
		return c.accessCost(in.Ord, false)
	case ir.OpStore:
		return c.accessCost(in.Ord, true)
	case ir.OpCmpXchg, ir.OpRMW:
		return c.rmwCost(in.Ord)
	case ir.OpFence:
		return c.fenceCost(in.Ord)
	}
	return 0
}
