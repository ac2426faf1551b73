package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/weaken"
)

// WeakenRow is one program's checker-in-the-loop weakening measurement:
// how much static synchronization cost the optimizer removed from the
// plain port, and what vouched for it: checker calls, and the stress
// screens a run above the screening crossover used instead of checker
// screens (docs/WEAKENING.md, "Choosing the screen"). A refused run (the
// baseline verdict was a violation, or the budget could not establish
// one) records the reason instead of a reduction — refusals are data,
// not errors.
type WeakenRow struct {
	Program         string  `json:"program"`
	Kind            string  `json:"kind"` // "corpus" or "appgen"
	Arch            string  `json:"arch"`
	DetectRaces     bool    `json:"detect_races"`
	Verdict         string  `json:"verdict"`
	Refused         string  `json:"refused,omitempty"`
	CostBefore      int64   `json:"cost_before"`
	CostAfter       int64   `json:"cost_after"`
	ReductionPct    float64 `json:"reduction_pct"`
	Tried           int     `json:"tried"`
	Accepted        int     `json:"accepted"`
	Rejected        int     `json:"rejected"`
	Rounds          int     `json:"rounds"`
	FencesDeleted   int     `json:"fences_deleted"`
	MCChecks        int     `json:"mc_checks"`
	StressChecks    int     `json:"stress_checks"`
	StressSchedules int     `json:"stress_schedules"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// WeakenTarget names one program of the sweep and its checker
// configuration. DetectRaces follows the conformance suite's
// per-program setting: off exactly where the fingerprinted state space
// is intractable (benign retry races — docs/WEAKENING.md).
type WeakenTarget struct {
	Name        string
	Kind        string
	DetectRaces bool
	compile     func() (*ir.Module, []string, error)
}

func corpusTarget(name string, detectRaces bool) WeakenTarget {
	return WeakenTarget{Name: name, Kind: "corpus", DetectRaces: detectRaces,
		compile: func() (*ir.Module, []string, error) {
			p := corpus.Get(name)
			if p == nil {
				return nil, nil, fmt.Errorf("program %q not in corpus", name)
			}
			m, err := p.Compile()
			return m, p.MCEntries, err
		}}
}

func appgenTarget(seed int64) WeakenTarget {
	name := fmt.Sprintf("appgen-%d", seed)
	return WeakenTarget{Name: name, Kind: "appgen", DetectRaces: false,
		compile: func() (*ir.Module, []string, error) {
			src, entries := appgen.RunnableProgram(seed)
			res, err := minic.Compile(name+".c", src)
			if err != nil {
				return nil, nil, err
			}
			return res.Module, entries, nil
		}}
}

// DefaultWeakenTargets is the CK-style corpus (the flagships plus the
// ck locks) and two generated appgen modules.
func DefaultWeakenTargets() []WeakenTarget {
	return []WeakenTarget{
		corpusTarget("mp", true),
		corpusTarget("seqlock", false),
		corpusTarget("seqlock-gap", true),
		corpusTarget("cna-lock", true),
		corpusTarget("ck_spinlock_cas", false),
		corpusTarget("ck_spinlock_ticket", false),
		corpusTarget("ck_spinlock_mcs", false),
		corpusTarget("ck_sequence", false),
		// Two-thread generated programs whose exhaustive baseline is
		// tractable; wider seeds (3+ threads) exhaust the candidate
		// budget and record refusals instead of reductions.
		appgenTarget(6),
		appgenTarget(11),
	}
}

// WeakenSweep ports each target and runs the weakening optimizer on
// the ported module, measuring cost reduction and accepted-weakening
// counts. workers sets the screening fan-out (0 = 4; the weakened
// module is identical at every value), arch the cost model ("" =
// weaken.DefaultArch).
func WeakenSweep(targets []WeakenTarget, workers int, arch string, prov *obs.Provider) ([]WeakenRow, error) {
	if len(targets) == 0 {
		targets = DefaultWeakenTargets()
	}
	if workers <= 0 {
		workers = 4
	}
	var rows []WeakenRow
	for _, tgt := range targets {
		orig, entries, err := tgt.compile()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", tgt.Name, err)
		}
		ported, _, err := atomig.PortClone(orig, atomig.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("bench: port %s: %w", tgt.Name, err)
		}
		opts := weaken.DefaultOptions(entries)
		opts.DetectRaces = tgt.DetectRaces
		opts.Workers = workers
		opts.Arch = arch
		start := time.Now()
		res, err := weaken.Optimize(ported, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: weaken %s: %w", tgt.Name, err)
		}
		rows = append(rows, WeakenRow{
			Program:         tgt.Name,
			Kind:            tgt.Kind,
			Arch:            res.Arch,
			DetectRaces:     tgt.DetectRaces,
			Verdict:         res.Verdict,
			Refused:         res.Reason,
			CostBefore:      res.CostBefore,
			CostAfter:       res.CostAfter,
			ReductionPct:    res.Reduction(),
			Tried:           res.Tried,
			Accepted:        res.Accepted,
			Rejected:        res.Rejected,
			Rounds:          res.Rounds,
			FencesDeleted:   res.FencesDeleted,
			MCChecks:        res.MCChecks,
			StressChecks:    res.StressChecks,
			StressSchedules: res.StressSchedules,
			ElapsedMS:       float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
	return rows, nil
}

// FormatWeaken renders the sweep.
func FormatWeaken(rows []WeakenRow) string {
	var b strings.Builder
	b.WriteString("Checker-in-the-loop barrier weakening (cost vs plain port, per-arch static cycles)\n")
	fmt.Fprintf(&b, "%-20s %-7s %-6s %5s %9s %9s %8s %6s %6s %7s %6s %6s %9s %10s\n",
		"program", "kind", "arch", "races", "before", "after", "reduct", "tried", "accept", "rounds", "mc", "stress", "schedules", "elapsed")
	for _, r := range rows {
		if r.Refused != "" {
			fmt.Fprintf(&b, "%-20s %-7s %-6s %5t %9d %9s refused: %s\n",
				r.Program, r.Kind, r.Arch, r.DetectRaces, r.CostBefore, "-", r.Refused)
			continue
		}
		fmt.Fprintf(&b, "%-20s %-7s %-6s %5t %9d %9d %7.1f%% %6d %6d %7d %6d %6d %9d %9.0fms\n",
			r.Program, r.Kind, r.Arch, r.DetectRaces, r.CostBefore, r.CostAfter,
			r.ReductionPct, r.Tried, r.Accepted, r.Rounds, r.MCChecks,
			r.StressChecks, r.StressSchedules, r.ElapsedMS)
	}
	return b.String()
}
