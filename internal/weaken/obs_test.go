package weaken

import (
	"testing"

	"repro/internal/obs"
)

// TestCountersMatchResult: a run publishes its Result's totals to the
// weaken.* counters, once, when it returns. The counters read after
// Optimize equal the matching Result fields, and a second run on the
// same provider adds its own totals.
func TestCountersMatchResult(t *testing.T) {
	ported, entries := diffTarget{name: "seqlock"}.ported(t)
	opts := DefaultOptions(entries)
	opts.DetectRaces = false
	opts.Obs = obs.New()
	_, res, err := OptimizeClone(ported, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.FencesDeleted == 0 {
		t.Fatalf("rejected=%d fences_deleted=%d: the run must reject a candidate and delete a fence to pin their counters", res.Rejected, res.FencesDeleted)
	}
	var saved int64
	for _, d := range res.Decisions {
		saved += d.CostDelta
	}
	for runs := int64(1); runs <= 2; runs++ {
		c := opts.Obs.Snapshot().Counters
		for name, want := range map[string]int{
			"weaken.candidates_tried":    res.Tried,
			"weaken.candidates_accepted": res.Accepted,
			"weaken.candidates_rejected": res.Rejected,
			"weaken.rounds_run":          res.Rounds,
			"weaken.sites_weakened":      len(res.Decisions),
			"weaken.fences_deleted":      res.FencesDeleted,
		} {
			if c[name] != runs*int64(want) {
				t.Errorf("after %d run(s): %s = %d, want %d", runs, name, c[name], runs*int64(want))
			}
		}
		if c["weaken.runs_completed"] != runs || c["weaken.cost_reduced"] != runs*saved {
			t.Errorf("after %d run(s): runs_completed=%d cost_reduced=%d, want %d and %d",
				runs, c["weaken.runs_completed"], c["weaken.cost_reduced"], runs, runs*saved)
		}
		if runs == 1 {
			if _, _, err := OptimizeClone(ported, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
}
