// Package atomig orchestrates the porting pipeline reproduced from the
// paper (Figure 2): explicit-annotation analysis, implicit
// synchronization-pattern detection (spinloops and optimistic loops),
// type-based alias exploration, and the final program transformations
// that make the detected accesses sequentially consistent and insert
// explicit barriers around optimistic accesses.
package atomig

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/fanout"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/transform"
)

// Level selects how much of the detection pipeline runs, matching the
// ablation columns of the paper's Table 2.
type Level int

// Pipeline levels.
const (
	// LevelExplicit only analyzes explicit annotations (volatile,
	// existing atomics, inline assembly) — Table 2's "Expl." column.
	LevelExplicit Level = iota
	// LevelSpin adds spinloop detection — Table 2's "Spin" column.
	LevelSpin
	// LevelFull adds optimistic-loop detection — the full AtoMig.
	LevelFull
)

func (l Level) String() string {
	switch l {
	case LevelExplicit:
		return "explicit"
	case LevelSpin:
		return "spin"
	case LevelFull:
		return "atomig"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Options configures a Port run.
type Options struct {
	Level Level
	// Inline enables the pre-analysis inliner (on by default via
	// DefaultOptions) so loops spanning several functions are detected.
	Inline        bool
	InlineOptions analysis.InlineOptions

	// DetectPolling enables the discussion-section extension that treats
	// bounded retry loops containing wait hints (pause/yield) as
	// synchronization (paper section 6).
	DetectPolling bool
	// BarrierSeeds enables the discussion-section extension that seeds
	// alias exploration from accesses around compiler barriers.
	BarrierSeeds bool
	// SkipAlias disables the sticky-buddy exploration. Only for the
	// ablation study: the result is an unsound port ("once atomic,
	// always atomic" is violated).
	SkipAlias bool
	// AliasStrategy selects how sticky buddies are found: the paper's
	// type-based scheme (default) or the Andersen-style points-to
	// analysis the paper rejects for scalability (section 3.4). The
	// latter exists to measure that trade-off.
	AliasStrategy AliasStrategy
	// Optimize runs the post-transformation optimizer (Figure 2's
	// "apply any outstanding optimizations" stage). The inserted atomics
	// are optimization barriers, so porting first keeps -O2 sound.
	Optimize bool
	// Obs, when non-nil, records a span per pipeline phase on the
	// "pipeline" trace track and publishes the Report tallies as
	// pipeline.* registry metrics (docs/OBSERVABILITY.md).
	Obs *obs.Provider
	// Workers sets the pipeline fan-out: per-function detection, the
	// alias-map build, and the fence pass run on this many goroutines
	// (0 or 1 means sequential). The ported module is byte-identical for
	// every value — see docs/PIPELINE.md for the determinism contract.
	Workers int
	// Context, when non-nil, cancels the port early: workers stop
	// claiming functions and Port returns the context's error. The
	// module is left partially transformed — callers that may cancel
	// should port a clone (PortClone), as the serving daemon does.
	Context context.Context
	// Summaries, when non-nil, holds one detection summary slot per
	// m.Funcs entry (a different length is an error). A filled slot is
	// replayed instead of analyzing its function; an empty one, or one
	// that does not fit its function, is analyzed and filled in place, so
	// re-porting a module after a small edit re-analyzes only the
	// functions whose slots the caller emptied. The caller owns the
	// rule for when a slot still describes its function (same body,
	// struct layouts, global annotations and options); the ported output
	// is byte-identical with or without summaries. See incremental.go
	// and docs/SERVE.md.
	Summaries []*FuncSummary
}

// AliasStrategy selects the sticky-buddy mechanism.
type AliasStrategy int

// Alias strategies.
const (
	// AliasTypeBased matches accesses by global symbol or
	// (struct type, field offset) — constant-time, scalable.
	AliasTypeBased AliasStrategy = iota
	// AliasPointsTo uses an inclusion-based points-to analysis —
	// more precise per object, much more expensive.
	AliasPointsTo
)

// DefaultOptions returns the full pipeline configuration.
func DefaultOptions() Options {
	return Options{Level: LevelFull, Inline: true, InlineOptions: analysis.DefaultInlineOptions()}
}

// ctxErr reports the cancellation state of the port's context, wrapped
// so callers can tell a canceled port from a pipeline failure.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	if err := o.Context.Err(); err != nil {
		return fmt.Errorf("atomig: port canceled: %w", err)
	}
	return nil
}

// Report summarizes a porting run; its counters correspond to the
// columns of the paper's Table 3.
type Report struct {
	Module string
	Level  Level
	// Workers is the fan-out the port ran with (always >= 1). It never
	// influences the ported module, only the wall-clock Duration.
	Workers int

	// Detection counts.
	Spinloops        int
	Optiloops        int
	PollingLoops     int // extension: wait-hint retry loops
	BarrierSeeded    int // extension: accesses seeded via compiler barriers
	FunctionsInlined int

	// Explicit-annotation results.
	VolatileConverted int
	AtomicUpgraded    int

	// Transformation results.
	SpinControlsMarked int
	OptControlsMarked  int   // optimistic-loop controls marked
	BuddiesExplored    int   // sticky-buddy candidates alias exploration reached
	AliasMerges        int64 // descriptor classes the union-find joined
	StickyMarked       int
	ImplicitAdded      int // accesses newly made SC-atomic
	ExplicitAdded      int // fences inserted

	// Barrier inventory before and after (Table 3's B_Expl / B_Impl).
	ExplicitBefore, ImplicitBefore int
	ExplicitAfter, ImplicitAfter   int

	// Optimizer statistics (when Options.Optimize is set).
	OptFolded  int
	OptHoisted int
	OptRemoved int

	// Detection-summary statistics (when Options.Summaries is set):
	// functions whose analyses were replayed from a summary vs.
	// re-analyzed.
	CacheHits   int
	CacheMisses int

	// Duration is the wall-clock time of the port (Table 3's build-time
	// comparison measures this against plain compilation).
	Duration time.Duration
}

// Port runs the atomig pipeline on m in place and returns the report.
// Callers that need to keep the original should clone the module first
// (ir.CloneModule). Internal panics anywhere in the pipeline are
// contained by the diag guard and returned as structured errors.
func Port(m *ir.Module, opts Options) (rep *Report, err error) {
	defer diag.Guard("atomig.Port", &err)
	if opts.Summaries != nil && len(opts.Summaries) != len(m.Funcs) {
		return nil, fmt.Errorf("atomig: %d summary slots for %d functions", len(opts.Summaries), len(m.Funcs))
	}
	start := time.Now()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	rep = &Report{Module: m.Name, Level: opts.Level, Workers: workers}
	rep.ExplicitBefore, rep.ImplicitBefore = transform.CountBarriers(m)

	// Every phase gets a span on the shared "pipeline" track, and the
	// report tallies land in the registry when the port finishes — both
	// no-ops without a provider.
	trk := opts.Obs.Track("pipeline")
	ps := trk.Begin("pipeline.port").Arg("module", m.Name).
		Arg("level", opts.Level.String()).Arg("workers", workers)
	defer func() {
		ps.End()
		if err == nil {
			publishReport(opts.Obs, rep)
		}
	}()

	sp := trk.Begin("pipeline.analysis")
	// Inlining stays sequential: clones of one callee body land in many
	// callers, so concurrent inlining would race on the callee.
	if opts.Inline {
		rep.FunctionsInlined = analysis.Inline(m, opts.InlineOptions)
	}

	// Phases 1+2, detection (paper sections 3.2–3.3): fanout.Each hands
	// out the functions, and each call fills its per-function result
	// slot. Each worker mutates only the function it holds (the explicit
	// upgrades); everything cross-function — marking, counting, seed
	// collection — happens in the in-order merge below, so the results
	// are identical for every worker count. A filled summary slot replays
	// the expensive analyses for its function, and an empty one is filled
	// by the call holding its index (incremental.go); the alias
	// contributions each function prepares here feed the phase-3 map
	// build. Accesses that are already atomic (pre-existing or just
	// upgraded) seed exploration too: "any atomic operations already
	// found in the program invariably indicate the presence of concurrent
	// accesses".
	det := make([]funcDetect, len(m.Funcs))
	accs := make([][]alias.Access, len(m.Funcs))
	hit := make([]bool, len(m.Funcs))
	err = fanout.Each(workers, len(m.Funcs), func(_, fi int) error {
		if err := opts.ctxErr(); err != nil {
			return err
		}
		var slot **FuncSummary
		if opts.Summaries != nil {
			slot = &opts.Summaries[fi]
		}
		det[fi], accs[fi], hit[fi] = detectFunc(m.Funcs[fi], opts, slot)
		return nil
	})
	if err != nil {
		return nil, err
	}

	implicitAdded := 0
	var seeds []*ir.Instr
	optLocs := make(map[alias.Loc]bool)
	var optLoops []*analysis.SpinloopInfo
	for fi := range det {
		d := &det[fi]
		if opts.Summaries != nil {
			if hit[fi] {
				rep.CacheHits++
			} else {
				rep.CacheMisses++
			}
		}
		rep.VolatileConverted += d.expl.VolatileConverted
		rep.AtomicUpgraded += d.expl.AtomicUpgraded
		implicitAdded += d.expl.VolatileConverted // upgrades were already atomic
		for _, info := range d.spin {
			rep.Spinloops++
			for _, ctl := range info.Controls {
				ctl.SetMark(ir.MarkSpinControl)
				if transform.MakeAccessSC(ctl, ir.MarkSpinControl) {
					implicitAdded++
				}
				rep.SpinControlsMarked++
				seeds = append(seeds, ctl)
			}
			if opts.Level >= LevelFull && info.Optimistic {
				rep.Optiloops++
				optLoops = append(optLoops, info)
				for _, loc := range info.ControlLocs {
					optLocs[loc] = true
				}
				for _, ctl := range info.Controls {
					ctl.SetMark(ir.MarkOptControl)
					rep.OptControlsMarked++
				}
			}
		}
		// Extension: polling loops with wait hints (paper section 6).
		for _, info := range d.polling {
			rep.PollingLoops++
			for _, ctl := range info.Controls {
				ctl.SetMark(ir.MarkSpinControl)
				if transform.MakeAccessSC(ctl, ir.MarkSpinControl) {
					implicitAdded++
				}
				seeds = append(seeds, ctl)
			}
		}
		// Extension: compiler-barrier-adjacent accesses as seeds.
		for _, in := range d.barrier {
			rep.BarrierSeeded++
			in.SetMark(ir.MarkFromAsm)
			if transform.MakeAccessSC(in, ir.MarkFromAsm) {
				implicitAdded++
			}
			seeds = append(seeds, in)
		}
		seeds = append(seeds, d.atomics...)
	}
	sp.Arg("seeds", len(seeds)).End()

	// Phase 3: alias exploration (paper section 3.4) — sticky buddies.
	// The map is folded in module order from the accesses detection
	// prepared; exploration and marking read its classes in that order.
	sp = trk.Begin("pipeline.alias")
	am := alias.BuildMapFromAccesses(m, workers, func(fi int, f *ir.Func) []alias.Access {
		return accs[fi]
	})
	rep.AliasMerges = am.Merges()
	if !opts.SkipAlias {
		var buddies []*ir.Instr
		if opts.AliasStrategy == AliasPointsTo {
			buddies = alias.AnalyzePointsTo(m).Explore(seeds)
		} else {
			buddies = am.Explore(seeds)
		}
		rep.BuddiesExplored = len(buddies)
		for _, buddy := range buddies {
			if buddy.Ord == ir.SeqCst {
				continue
			}
			buddy.SetMark(ir.MarkSticky)
			if transform.MakeAccessSC(buddy, ir.MarkSticky) {
				implicitAdded++
				rep.StickyMarked++
			}
		}
	}
	sp.Arg("buddies", rep.BuddiesExplored).Arg("merges", rep.AliasMerges).End()

	// Phase 4: explicit barriers for optimistic controls. Reads of an
	// optimistic-control location inside its optimistic loop get a fence
	// before them; stores to optimistic-control locations get a fence
	// after them module-wide (the store side of the seqlock protocol can
	// be anywhere). Fence IDs come from each function's own counter, so
	// the pass fans out per function without losing determinism.
	sp = trk.Begin("pipeline.transform")
	fences := 0
	if opts.Level >= LevelFull && len(optLocs) > 0 {
		// Key both location sets by canonical representative so every
		// descriptor spelling of a control cell matches.
		canonOpt := make(map[alias.Loc]bool, len(optLocs))
		for loc := range optLocs {
			canonOpt[am.Canon(loc)] = true
		}
		byFn := make(map[*ir.Func][]optLoopCtl)
		for _, info := range optLoops {
			ctl := make(map[alias.Loc]bool, len(info.ControlLocs))
			for _, loc := range info.ControlLocs {
				ctl[am.Canon(loc)] = true
			}
			byFn[info.Fn] = append(byFn[info.Fn], optLoopCtl{loop: info.Loop, ctl: ctl})
		}
		fenceCount := make([]int, len(m.Funcs))
		err = fanout.Each(workers, len(m.Funcs), func(_, fi int) error {
			if err := opts.ctxErr(); err != nil {
				return err
			}
			f := m.Funcs[fi]
			fenceCount[fi] = insertOptFences(f, accs[fi], byFn[f], canonOpt, am)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, n := range fenceCount {
			fences += n
		}
	}

	rep.ImplicitAdded = implicitAdded
	rep.ExplicitAdded = fences
	rep.ExplicitAfter, rep.ImplicitAfter = transform.CountBarriers(m)
	sp.Arg("fences", fences).End()

	// Phase 5: outstanding optimizations (Figure 2), now that every
	// synchronization access is atomic and thus barrier to the passes.
	if opts.Optimize {
		sp = trk.Begin("pipeline.optimize")
		ost := opt.Optimize(m)
		rep.OptFolded = ost.Folded
		rep.OptHoisted = ost.Hoisted
		rep.OptRemoved = ost.DeadRemoved + ost.BlocksRemoved
		sp.End()
	}
	sp = trk.Begin("pipeline.verify")
	verr := ir.Verify(m)
	sp.End()
	if verr != nil {
		return nil, fmt.Errorf("atomig: transformed module invalid: %w", verr)
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// PortClone clones m, ports the clone, and returns it with the report,
// leaving m untouched.
func PortClone(m *ir.Module, opts Options) (*ir.Module, *Report, error) {
	c, err := ir.CloneModule(m)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Port(c, opts)
	if err != nil {
		return nil, nil, err
	}
	return c, rep, nil
}
