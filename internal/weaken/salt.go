package weaken

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/memmodel"
)

// Per-candidate budget defaults, applied by Optimize and mirrored by
// Salt so a zero value and the explicit default fingerprint alike.
const (
	defaultMaxExecs    = 200_000
	defaultTimeBudget  = 30 * time.Second
	defaultStressSeeds = 32
)

// Salt fingerprints every Options field that can change the optimizer's
// output, in a canonical form: zero values are normalized to the
// defaults Optimize itself applies, so an explicit default and an
// unset field share a fingerprint. Workers is excluded (the weakened
// module is byte-identical at every fan-out), as are Context and Obs
// (they never influence the result), and so is the default oracle's
// choice of screening engine (it changes a run's cost, not its module).
//
// Incremental consumers — the serve daemon keys its optimize memo by
// it — use it to guarantee that toggling any optimize option
// invalidates a result computed under a different configuration.
func (o Options) Salt() string {
	arch := o.Arch
	if arch == "" {
		arch = DefaultArch
	}
	execs := o.MaxExecs
	if execs == 0 {
		execs = defaultMaxExecs
	}
	budget := o.TimeBudget
	if budget == 0 {
		budget = defaultTimeBudget
	}
	s := fmt.Sprintf("weaken/v1|model=%s|arch=%s|races=%t|execs=%d|steps=%d|budget=%s|entries=%s",
		o.Model.Or(memmodel.ModelWMM), arch, o.DetectRaces, execs, o.MaxStepsPerExec, budget,
		strings.Join(o.Entries, ","))
	// The oracle segment appears only for non-default oracles, so every
	// fingerprint minted before the seam exists is still valid.
	if o.Oracle != OracleExhaustive {
		seeds := o.StressSeeds
		if seeds == 0 {
			seeds = defaultStressSeeds
		}
		sample := o.StressSample
		if sample <= 0 || sample >= 1 {
			sample = 1
		}
		// sconfirm is OracleStress's confirm budget, always 4 × sseeds;
		// it stays in the segment so existing fingerprints still match.
		s += fmt.Sprintf("|oracle=%s|sseeds=%d|sconfirm=%d|ssample=%g",
			o.Oracle, seeds, 4*seeds, sample)
	}
	return s
}
