// Incremental detection: per-function summaries of the detection phase.
// The whole phase — dominator trees, natural-loop discovery, influence
// slices, alias descriptor computation (alias.Reprs), barrier-seed and
// atomic-access collection, the barrier inventory, and the
// explicit-annotation upgrade mutations — is a pure function of the
// function body, the module's struct layouts and global annotations,
// and the pipeline options. A caller that keeps all of those but the
// bodies fixed (the serving daemon's session) can keep each function's
// summary and replay it onto the same function, or onto a copy, in a
// single walk. A summary that records no write replays read-only, so
// PortShared replays it on the source's own function; one that does is
// replayed on a copy. The upgrade mutations replay through the same
// transform.MakeAccessSC calls the cold path makes, and every ordinal
// is validated before anything mutates, so a summary that does not fit
// falls back to full re-analysis and the ported output is
// byte-identical either way (docs/SERVE.md covers when the daemon drops
// a summary).
package atomig

import (
	"sort"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// FuncSummary is one function's detection verdict, encoded
// positionally (instruction ordinals within the block-order walk, block
// indices within f.Blocks) so it can be replayed onto any instruction-
// identical instance of the function. It captures the complete
// detection-phase result — loop analyses, alias contributions, barrier
// seeds, pre-annotated atomics, and the explicit-annotation upgrades
// (the phase's only mutations) — so a replay runs the whole phase in a
// single walk. It holds no IR pointers, so a kept summary pins no
// module, and it is never mutated once made.
type FuncSummary struct {
	spin    []loopSummary
	polling []loopSummary
	// accesses are the alias contributions: the accesses with a shared
	// descriptor, in walk order.
	accesses []accessSummary
	// memPos holds the 1-based walk position of every memory access,
	// shared or not; a replay checks each access against it.
	memPos   []int32
	upgrades []upgradeSummary
	barriers []int32 // ordinals of compiler-barrier seed accesses
	atomics  []int32 // ordinals of post-upgrade atomic accesses
}

// upgradeSummary position-encodes one explicit-annotation upgrade: the
// mutation MakeAccessSC applies to the access at ordinal pos, either
// from a volatile annotation or from a weaker atomic ordering.
type upgradeSummary struct {
	pos      int32
	volatile bool
}

// loopSummary position-encodes one analysis.SpinloopInfo.
type loopSummary struct {
	controls    []int32
	controlLocs []alias.Loc
	optimistic  bool
	header      int32
	blocks      []int32
}

// accessSummary position-encodes one shared memory access's alias
// contribution (alias.Access without the instruction pointer).
type accessSummary struct {
	pos     int32
	primary alias.Loc
	extras  []alias.Loc
}

// funcScan is the positional index of one function instance: the
// block-order instruction array (ordinal -> instruction) and its
// inverses. Only the cold path (summarize) needs the inverse maps; the
// replay path needs the flat array alone, and only to resolve
// ordinals.
type funcScan struct {
	instrs   []*ir.Instr
	index    map[*ir.Instr]int
	blockIdx map[*ir.Block]int
}

// flatInstrs returns f's instructions in block order — the positional
// coordinate system every summary ordinal refers to.
func flatInstrs(f *ir.Func) []*ir.Instr {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	out := make([]*ir.Instr, 0, n)
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

func newFuncScan(f *ir.Func) *funcScan {
	sc := &funcScan{
		instrs:   flatInstrs(f),
		blockIdx: make(map[*ir.Block]int, len(f.Blocks)),
	}
	for bi, b := range f.Blocks {
		sc.blockIdx[b] = bi
	}
	sc.index = make(map[*ir.Instr]int, len(sc.instrs))
	for i, in := range sc.instrs {
		sc.index[in] = i
	}
	return sc
}

// summarize encodes the complete detection result against the function
// instance it was computed on. It runs after the upgrade pass, so the
// upgraded accesses are identified by their marks.
func summarize(f *ir.Func, d funcDetect, accs []alias.Access) *FuncSummary {
	sc := newFuncScan(f)
	s := &FuncSummary{
		spin:    summarizeLoops(d.spin, sc),
		polling: summarizeLoops(d.polling, sc),
	}
	for _, a := range accs {
		s.accesses = append(s.accesses, accessSummary{
			pos:     int32(a.Pos),
			primary: a.Primary,
			extras:  a.Extras,
		})
	}
	for i, in := range sc.instrs {
		if in.IsMemAccess() {
			s.memPos = append(s.memPos, int32(i+1))
		}
		switch {
		case in.HasMark(ir.MarkFromVolatile):
			s.upgrades = append(s.upgrades, upgradeSummary{pos: int32(i), volatile: true})
		case in.HasMark(ir.MarkFromAtomic):
			s.upgrades = append(s.upgrades, upgradeSummary{pos: int32(i)})
		}
	}
	for _, in := range d.barrier {
		s.barriers = append(s.barriers, int32(sc.index[in]))
	}
	for _, in := range d.atomics {
		s.atomics = append(s.atomics, int32(sc.index[in]))
	}
	return s
}

func summarizeLoops(infos []*analysis.SpinloopInfo, sc *funcScan) []loopSummary {
	out := make([]loopSummary, 0, len(infos))
	for _, info := range infos {
		ls := loopSummary{
			controlLocs: append([]alias.Loc(nil), info.ControlLocs...),
			optimistic:  info.Optimistic,
			header:      -1,
		}
		for _, ctl := range info.Controls {
			ls.controls = append(ls.controls, int32(sc.index[ctl]))
		}
		if info.Loop != nil {
			if hi, ok := sc.blockIdx[info.Loop.Header]; ok {
				ls.header = int32(hi)
			}
			for b := range info.Loop.Blocks {
				ls.blocks = append(ls.blocks, int32(sc.blockIdx[b]))
			}
			sort.Slice(ls.blocks, func(i, j int) bool { return ls.blocks[i] < ls.blocks[j] })
		}
		out = append(out, ls)
	}
	return out
}

// replay materializes the complete detection result — including the
// barrier inventory and the upgrade mutations — against an instance of
// the same function. Every ordinal is validated before anything is
// mutated, so a rejected summary (one made for another body) leaves the
// function untouched and ok false — the caller falls back to full
// re-analysis, the safe degradation mode.
func (s *FuncSummary) replay(f *ir.Func) (d funcDetect, accs []alias.Access, ok bool) {
	// Only ordinals are resolved through the flat instruction array; a
	// summary without any walks the blocks alone.
	var instrs []*ir.Instr
	if len(s.spin)+len(s.polling)+len(s.upgrades)+len(s.barriers)+len(s.atomics) > 0 {
		instrs = flatInstrs(f)
	}
	if d.spin, ok = replayLoops(s.spin, f, instrs); !ok {
		return funcDetect{}, nil, false
	}
	if d.polling, ok = replayLoops(s.polling, f, instrs); !ok {
		return funcDetect{}, nil, false
	}
	// The i-th memory access of the walk must sit at the i-th recorded
	// position, and each summarized shared access at the position of one
	// of them, in order. The same walk takes the barrier inventory,
	// before any upgrade.
	accs = make([]alias.Access, 0, len(s.accesses))
	pos, mi, ai := 0, 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			pos++
			if in.Op == ir.OpFence {
				d.expl.Fences++
			}
			if !in.IsMemAccess() {
				continue
			}
			if in.Ord.Atomic() {
				d.expl.Atomics++
			}
			if mi >= len(s.memPos) || int(s.memPos[mi]) != pos {
				return funcDetect{}, nil, false
			}
			mi++
			if ai < len(s.accesses) && int(s.accesses[ai].pos) == pos {
				a := s.accesses[ai]
				accs = append(accs, alias.Access{In: in, Pos: pos, Primary: a.primary, Extras: a.extras})
				ai++
			}
		}
	}
	if mi != len(s.memPos) || ai != len(s.accesses) {
		return funcDetect{}, nil, false
	}
	// Validate the mutation and seed ordinals against the pre-upgrade
	// instruction state. An atomics entry may name an access that only
	// becomes atomic via an upgrade, so those are cross-checked against
	// the upgrade list.
	for _, u := range s.upgrades {
		if int(u.pos) >= len(instrs) || !instrs[u.pos].IsMemAccess() {
			return funcDetect{}, nil, false
		}
		in := instrs[u.pos]
		if in.Ord == ir.SeqCst {
			return funcDetect{}, nil, false
		}
		if u.volatile && !in.Volatile {
			return funcDetect{}, nil, false
		}
		if !u.volatile && !in.Ord.Atomic() {
			return funcDetect{}, nil, false
		}
	}
	for _, ord := range s.barriers {
		if int(ord) >= len(instrs) || !instrs[ord].IsMemAccess() {
			return funcDetect{}, nil, false
		}
	}
	for _, ord := range s.atomics {
		if int(ord) >= len(instrs) || !instrs[ord].IsMemAccess() {
			return funcDetect{}, nil, false
		}
		if !instrs[ord].Ord.Atomic() && !upgradedAt(s.upgrades, ord) {
			return funcDetect{}, nil, false
		}
	}
	// Everything fits; apply the mutations and resolve the seed lists.
	for _, u := range s.upgrades {
		if u.volatile {
			transform.MakeAccessSC(instrs[u.pos], ir.MarkFromVolatile)
			d.expl.VolatileConverted++
		} else {
			transform.MakeAccessSC(instrs[u.pos], ir.MarkFromAtomic)
			d.expl.AtomicUpgraded++
		}
	}
	if len(s.barriers) > 0 {
		d.barrier = make([]*ir.Instr, len(s.barriers))
		for i, ord := range s.barriers {
			d.barrier[i] = instrs[ord]
		}
	}
	if len(s.atomics) > 0 {
		d.atomics = make([]*ir.Instr, len(s.atomics))
		for i, ord := range s.atomics {
			d.atomics[i] = instrs[ord]
		}
	}
	return d, accs, true
}

// writes reports whether the port writes the function s describes:
// detection upgrades an access, or the merge marks a loop control or a
// barrier seed.
func (s *FuncSummary) writes() bool {
	return len(s.upgrades) > 0 || len(s.spin) > 0 || len(s.polling) > 0 || len(s.barriers) > 0
}

// upgradedAt reports whether the upgrade list touches ordinal ord.
func upgradedAt(ups []upgradeSummary, ord int32) bool {
	for _, u := range ups {
		if u.pos == ord {
			return true
		}
	}
	return false
}

func replayLoops(sums []loopSummary, f *ir.Func, instrs []*ir.Instr) ([]*analysis.SpinloopInfo, bool) {
	if len(sums) == 0 {
		return nil, true
	}
	out := make([]*analysis.SpinloopInfo, 0, len(sums))
	for _, ls := range sums {
		info := &analysis.SpinloopInfo{
			Fn:          f,
			Optimistic:  ls.optimistic,
			ControlLocs: append([]alias.Loc(nil), ls.controlLocs...),
		}
		for _, ord := range ls.controls {
			if int(ord) >= len(instrs) {
				return nil, false
			}
			info.Controls = append(info.Controls, instrs[ord])
		}
		loop := &analysis.Loop{Blocks: make(map[*ir.Block]bool, len(ls.blocks))}
		if ls.header >= 0 {
			if int(ls.header) >= len(f.Blocks) {
				return nil, false
			}
			loop.Header = f.Blocks[ls.header]
		}
		for _, bi := range ls.blocks {
			if int(bi) >= len(f.Blocks) {
				return nil, false
			}
			loop.Blocks[f.Blocks[bi]] = true
		}
		info.Loop = loop
		out = append(out, info)
	}
	return out, true
}

// detectFunc runs the detection phase's analyses on f — the explicit
// upgrades, which write f, among them — and, when slot is non-nil,
// fills it with a fresh summary. Returns the function's result slot and
// its prepared alias contributions.
func detectFunc(f *ir.Func, opts Options, slot **FuncSummary) (d funcDetect, accs []alias.Access) {
	d.expl = transform.UpgradeExplicitAnnotationsFunc(f)
	det := analysis.NewDetector(f)
	if opts.Level >= LevelSpin {
		d.spin = det.Spinloops()
		if opts.DetectPolling {
			d.polling = det.PollingLoops(d.spin)
		}
	}
	accs = alias.PrepareFunc(f)
	if opts.BarrierSeeds {
		d.barrier = det.BarrierSeeds()
	}
	f.Instrs(func(in *ir.Instr) {
		if in.IsMemAccess() && in.Ord.Atomic() {
			d.atomics = append(d.atomics, in)
		}
	})
	if slot != nil {
		*slot = summarize(f, d, accs)
	}
	return d, accs
}
