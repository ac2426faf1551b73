package weaken

import "repro/internal/obs"

// publish adds one completed run's totals to p's weaken.* counters
// (docs/OBSERVABILITY.md): the run counts its work in its Result, and
// the registry only receives it, once, when the run returns without
// error. frozen is the number of sites the run froze. Counters are
// cumulative across runs sharing a provider, so a bench sweep
// optimizing many modules sums naturally; nil-safe.
func publish(p *obs.Provider, res *Result, frozen int) {
	var saved int64
	for _, d := range res.Decisions {
		saved += d.CostDelta
	}
	p.Counter("weaken.runs_completed").Inc()
	p.Counter("weaken.candidates_tried").Add(int64(res.Tried))
	p.Counter("weaken.candidates_accepted").Add(int64(res.Accepted))
	p.Counter("weaken.candidates_rejected").Add(int64(res.Rejected))
	p.Counter("weaken.rounds_run").Add(int64(res.Rounds))
	p.Counter("weaken.sites_frozen").Add(int64(frozen))
	// A decision is a site: fence deletions count as weakened sites.
	p.Counter("weaken.sites_weakened").Add(int64(len(res.Decisions)))
	p.Counter("weaken.fences_deleted").Add(int64(res.FencesDeleted))
	p.Counter("weaken.cost_reduced").Add(saved)
}
