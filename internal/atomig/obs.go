package atomig

import "repro/internal/obs"

// publishReport accumulates a port's Table-3 tallies into the metrics
// registry under the pipeline.* namespace. Counters are cumulative: a
// difftest grid or bench sweep porting many modules through one
// provider sums naturally.
func publishReport(p *obs.Provider, rep *Report) {
	if p == nil {
		return
	}
	p.Counter("pipeline.ports_completed").Inc()
	p.Counter("pipeline.functions_inlined").Add(int64(rep.FunctionsInlined))
	p.Counter("pipeline.spinloops_found").Add(int64(rep.Spinloops))
	p.Counter("pipeline.optiloops_found").Add(int64(rep.Optiloops))
	p.Counter("pipeline.polling_loops_found").Add(int64(rep.PollingLoops))
	p.Counter("pipeline.barrier_seeds_found").Add(int64(rep.BarrierSeeded))
	p.Counter("pipeline.volatiles_converted").Add(int64(rep.VolatileConverted))
	p.Counter("pipeline.atomics_upgraded").Add(int64(rep.AtomicUpgraded))
	p.Counter("pipeline.spin_controls_marked").Add(int64(rep.SpinControlsMarked))
	p.Counter("pipeline.opt_controls_marked").Add(int64(rep.OptControlsMarked))
	p.Counter("pipeline.buddies_explored").Add(int64(rep.BuddiesExplored))
	p.Counter("pipeline.alias_classes_merged").Add(rep.AliasMerges)
	p.Counter("pipeline.sticky_marked").Add(int64(rep.StickyMarked))
	p.Counter("pipeline.accesses_transformed").Add(int64(rep.ImplicitAdded))
	p.Counter("pipeline.fences_inserted").Add(int64(rep.ExplicitAdded))
	p.Counter("pipeline.functions_copied").Add(int64(rep.FunctionsCopied))
	p.Histogram("pipeline.port_duration_micros").Observe(rep.Duration.Microseconds())
	p.Log().Event("pipeline.port_completed").
		Str("module", rep.Module).
		Int("cache_hits", int64(rep.CacheHits)).
		Int("cache_misses", int64(rep.CacheMisses)).
		Int("dur_us", rep.Duration.Microseconds()).Emit()
}
