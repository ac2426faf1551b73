package main

import "time"

// runner is one set-up workload instance.
type runner interface {
	// op runs operation i and returns its latency, timed around the
	// public entry points only; the error reports a wrong output or a
	// failed request.
	op(p *pass, i int) (time.Duration, error)
	// finish makes the checks due after the last operation.
	finish(p *pass) error
	// close releases the instance and waits for anything it started.
	close() error
}

type workload struct {
	name string
	// minOps is the least number of operations one pass runs.
	minOps int
	setup  func(p *pass, seed int64) (runner, error)
	// detail adds the workload's own figures, read from the untraced
	// pass, in their natural units.
	detail func(p *pass, d map[string]metric)
}

var workloads = []*workload{portCold, serveEdit, weakenCorpus, stressLarge}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// layerMetrics builds the per-layer set. Every workload reports every
// metric, in absolute units; a layer the workload does not run reads 0.
func layerMetrics(plain, traced *pass, spans spanSet) map[string]metric {
	c := plain.count
	opMS := median(plain.ms["op"])
	// Span times are scaled to the reference speed like the own clocks',
	// by the traced pass's median factor.
	speed := median(traced.factors)
	selfMS := func(name string) float64 { return speed * spans.selfMS(name) }
	rate := func(n, msecs float64) float64 {
		if msecs <= 0 {
			return 0
		}
		return n / (msecs / 1e3)
	}
	ratio := func(a, b float64) float64 {
		if a+b <= 0 {
			return 0
		}
		return a / (a + b)
	}
	// A stress sweep is the whole operation where it runs.
	sweepMS := 0.0
	if c["stress.schedules"] > 0 {
		sweepMS = opMS
	}
	checkMS := median(plain.ms["mc.check"])

	m := map[string]metric{
		"minic.compile_ms": {median(plain.ms["minic.compile"]), "ms"},
		"minic.alloc_mb":   {median(plain.mb["minic"]), "MB"},
		"minic.lex_ms":     {selfMS("frontend.lex"), "ms"},
		"minic.parse_ms":   {selfMS("frontend.parse"), "ms"},
		"minic.lower_ms":   {selfMS("frontend.lower"), "ms"},

		"atomig.port_ms":         {median(plain.ms["atomig.port"]), "ms"},
		"atomig.alloc_mb":        {median(plain.mb["atomig"]), "MB"},
		"atomig.analysis_ms":     {selfMS("pipeline.analysis"), "ms"},
		"atomig.alias_ms":        {selfMS("pipeline.alias"), "ms"},
		"atomig.transform_ms":    {selfMS("pipeline.transform"), "ms"},
		"atomig.verify_ms":       {selfMS("pipeline.verify"), "ms"},
		"atomig.spinloops":       {c["atomig.spinloops"], "count"},
		"atomig.sticky_marked":   {c["atomig.sticky_marked"], "count"},
		"atomig.fences":          {c["atomig.fences"], "count"},
		"atomig.alias_merges":    {c["atomig.alias_merges"], "count"},
		"atomig.cache_hit_ratio": {ratio(c["serve.cache_hits"], c["serve.cache_misses"]), "ratio"},

		// The serve layer's self times come from serve.request spans; a
		// port request's own pipeline.port child is not serve time.
		"serve.edit_self_ms":    {speed * spans.requestSelfMS("edit"), "ms"},
		"serve.port_self_ms":    {speed * spans.requestSelfMS("port", "pipeline.port"), "ms"},
		"serve.requests_failed": {c["serve.requests_failed"], "count"},

		"weaken.tried":        {c["weaken.tried"], "count"},
		"weaken.accepted":     {c["weaken.accepted"], "count"},
		"weaken.accept_ratio": {ratio(c["weaken.accepted"], c["weaken.tried"]-c["weaken.accepted"]), "ratio"},
		"weaken.rounds":       {c["weaken.rounds"], "count"},
		"weaken.self_ms":      {median(plain.ms["weaken.optimize"]) - checkMS, "ms"},

		"mc.checks":      {c["mc.checks"], "count"},
		"mc.executions":  {c["mc.executions"], "count"},
		"mc.check_ms":    {checkMS, "ms"},
		"mc.execs_per_s": {rate(c["mc.executions"], checkMS), "1/s"},

		"stress.sweep_ms":        {sweepMS, "ms"},
		"stress.schedules_per_s": {rate(c["stress.schedules"], sweepMS), "1/s"},
		"stress.steps_per_s":     {rate(c["stress.steps"], sweepMS), "1/s"},
		"stress.vm_reuse_ratio":  {ratio(c["stress.vm_resets"], c["stress.vm_allocs"]), "ratio"},
		"stress.forwarded_ratio": {ratio(c["stress.forwarded"], c["stress.skipped"]), "ratio"},
		"stress.step_limited":    {c["stress.step_limited"], "count"},

		"obs.trace_overhead_pct": {100 * (median(traced.ms["op"]) - opMS) / opMS, "%"},
	}
	for _, prog := range weakenPrograms {
		m["weaken.ms."+prog.name] = metric{median(plain.ms["weaken."+prog.name]), "ms"}
	}
	return m
}
