// Package mc is a bounded exhaustive model checker for AIR programs
// under the SC, TSO and WMM memory models — the reproduction's
// stand-in for GenMC in the paper's correctness evaluation (Table 2).
//
// Exploration is stateless in the GenMC sense: each execution replays
// the program from scratch following a recorded choice trace (scheduler
// decisions at visible operations, weak-read message choices, nondet
// inputs), and depth-first backtracking enumerates the remaining
// choices. A visited-state cache (full state hash after each visible
// step) prunes re-converging interleavings — in particular spinloop
// iterations that observed no change, which is what keeps spinloop
// programs finite without unsound loop bounding. One engine runs every
// check: Options.Workers workers split the depth-first frontier
// (parallel.go), and a single worker walks the plain depth-first
// search.
package mc

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/vm"
)

// Options configures a check.
type Options struct {
	Model   memmodel.Model
	Entries []string
	// MaxExecutions bounds the number of explored executions
	// (0 = 1_000_000).
	MaxExecutions int
	// MaxStepsPerExec bounds each execution's instruction count
	// (0 = 100_000).
	MaxStepsPerExec int64
	// TimeBudget bounds the wall-clock exploration time (0 = 10s). When
	// exceeded without a violation, the verdict is VerdictUnknown and
	// Result.Resume can continue the exploration.
	TimeBudget time.Duration
	// Context, when non-nil, cancels the exploration early; a canceled
	// check degrades to VerdictUnknown with a resume token instead of
	// losing the work done so far.
	Context context.Context
	// Resume continues a budget-expired exploration from the tokens a
	// previous Check returned (Result.Resume): one per unexplored
	// frontier fragment. The tokens pin the depth-first frontier, so a
	// resumed one-worker run follows exactly the trajectory the
	// uninterrupted run would have taken.
	Resume []*ResumeToken
	// StopAtFirst stops at the first violation, or the first race when
	// DetectRaces is on (default: explore everything and report up to 16
	// distinct violations).
	StopAtFirst bool
	// Traces replays each violating execution with tracing enabled and
	// attaches the visible-operation counterexample.
	Traces bool
	// Workers is the number of workers splitting the depth-first
	// frontier and sharing a lock-striped visited cache (0 or 1 = one
	// worker, which walks the plain depth-first search; callers wanting
	// all cores pass runtime.GOMAXPROCS(0)). On fully explored state
	// spaces the verdict, the violation set and the race-report keys are
	// identical for every worker count; see docs/MODEL-CHECKER.md.
	Workers int
	// DetectRaces attaches a happens-before race detector to every
	// explored execution. Data races become a first-class verdict
	// (VerdictRace) and the detector's happens-before state is mixed
	// into the visited-state hash, so pruning never collapses two states
	// whose clock assignments differ — a VerdictPass with race detection
	// on is a proof of race-freedom over the explored space.
	DetectRaces bool
	// MaxRaceReports caps the distinct race reports retained (0 = the
	// detector default).
	MaxRaceReports int
	// Obs is the observability provider (docs/OBSERVABILITY.md): the
	// exploration counters land in its metrics registry and, when its
	// tracer is on, every worker records a fragment-claim/donation
	// timeline. Nil falls back to a private registry — the counters also
	// feed Result — with tracing off.
	Obs *obs.Provider
}

// Counterexample is a violating execution: the violation message plus
// the sequence of visible operations that led to it.
type Counterexample struct {
	Msg    string
	Events []vm.TraceEvent
}

// String renders the counterexample as an interleaving.
func (c Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation: %s\n", c.Msg)
	for _, e := range c.Events {
		fmt.Fprintf(&b, "  T%d @%s: %s\n", e.Thread, e.Fn, e.Instr)
	}
	return b.String()
}

// Verdict is the three-valued outcome of a check. A checker that runs
// out of budget must say so: "no violation found in the part we
// explored" (Unknown) is a different claim from "no violation exists"
// (Verified), and conflating them is how a bounded checker silently
// certifies buggy code.
type Verdict int

// Verdicts.
const (
	// VerdictPass: no violation; the state space was fully explored.
	VerdictPass Verdict = iota
	// VerdictUnknown: no violation found, but exploration was cut short
	// by a budget (time, executions, per-execution steps) or canceled;
	// the result carries a resume token and exploration statistics.
	VerdictUnknown
	// VerdictFail: at least one execution violated an assertion or
	// deadlocked.
	VerdictFail
	// VerdictRace: no assertion violation or deadlock, but race
	// detection was on and at least one execution contained a data
	// race. Precedence is Fail > Race > Unknown > Pass: an outright
	// violation outranks a race, and a witnessed race is a definitive
	// claim even when exploration was cut short.
	VerdictRace
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "verified"
	case VerdictUnknown:
		return "unknown"
	case VerdictFail:
		return "violated"
	case VerdictRace:
		return "racy"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Result reports a check's findings.
type Result struct {
	Verdict Verdict
	// Violations holds the distinct violation messages, sorted (up to
	// 16); a resumed check lists the carried-over ones first.
	Violations []string
	// Counterexamples carries violation traces when Options.Traces is
	// set (parallel to Violations).
	Counterexamples []Counterexample
	// Races holds the deduplicated race reports when
	// Options.DetectRaces is set.
	Races []*race.Report
	// RaceWitnesses carries one replayed interleaving per execution
	// that exposed a previously unseen race, when Options.Traces and
	// Options.DetectRaces are both set.
	RaceWitnesses []Counterexample
	Executions    int
	// Pruned counts executions cut short by the visited-state cache.
	Pruned int
	// Truncated counts executions stopped by the per-execution step
	// budget (possible livelocks).
	Truncated int
	// States is the number of distinct post-visible-step states the
	// visited cache holds.
	States int
	// Frontier is the number of unexplored branches remaining on the
	// depth-first stack when the check stopped — 0 on a fully explored
	// state space, positive when a budget cut exploration short.
	Frontier int
	// Elapsed is the wall-clock exploration time consumed.
	Elapsed time.Duration
	// Reason explains an Unknown verdict ("time budget exhausted",
	// "execution budget exhausted", "canceled", or "step-truncated
	// executions"); empty otherwise.
	Reason string
	// Resume continues the exploration where this check stopped: one
	// token per remaining frontier fragment (the workers' unexplored
	// remainders plus the fragments still queued). Nil unless the
	// verdict is VerdictUnknown with work remaining.
	Resume []*ResumeToken
	// Workers is the worker count the check ran with.
	Workers int
	// ShardContention counts contended visited-shard lock acquisitions
	// (0 for one worker: the single-worker cache skips locking
	// entirely).
	ShardContention int64
	// VMResets and VMAllocs count how executions obtained their VM:
	// recycled via vm.Reset versus freshly built with vm.New.
	VMResets int64
	VMAllocs int64
}

// maxReports caps the violations, counterexamples and race witnesses a
// check retains.
const maxReports = 16

// choice is one recorded nondeterministic decision.
type choice struct {
	options int
	taken   int
	// ceil is the exclusive backtrack bound on taken (0 means options):
	// alternatives at ceil and beyond were donated to another worker by
	// a frontier split, so backtracking must not re-take them. Replay is
	// unaffected — it follows taken values only.
	ceil int
}

// bound returns the exclusive upper bound backtracking may take.
func (c choice) bound() int {
	if c.ceil > 0 {
		return c.ceil
	}
	return c.options
}

// dfs is the replay controller driving the exploration.
type dfs struct {
	trace     []choice
	pos       int
	prefixLen int
	// floor is the immutable prefix length of this exploration fragment:
	// backtrack never pops below it. The choices under floor (and the
	// pre-floor siblings) belong to the donor that split this fragment
	// off. 0 for a whole-tree exploration.
	floor int
	// corrupt is set when a replayed choice does not fit the choice
	// point actually offered — a resume token from a different
	// program, model, or harness. The execution is steered to option
	// 0 so it terminates harmlessly; Check turns the flag into an
	// error instead of trusting the exploration.
	corrupt bool
}

// pick returns the decision for a choice point with n options.
func (d *dfs) pick(n int) int {
	if d.pos < len(d.trace) {
		c := d.trace[d.pos]
		d.pos++
		if c.options != n || c.taken >= n {
			d.corrupt = true
			return 0
		}
		return c.taken
	}
	d.trace = append(d.trace, choice{options: n})
	d.pos++
	return 0
}

// replaying reports whether the execution is still inside the prefix
// replayed from the previous execution (visited-state pruning must be
// suppressed there: those states were recorded by earlier executions).
func (d *dfs) replaying() bool { return d.pos <= d.prefixLen }

// backtrack prepares the next trace; it returns false when the
// fragment is exhausted.
func (d *dfs) backtrack() bool {
	for len(d.trace) > d.floor {
		last := &d.trace[len(d.trace)-1]
		if last.taken+1 < last.bound() {
			last.taken++
			d.prefixLen = len(d.trace)
			d.pos = 0
			return true
		}
		d.trace = d.trace[:len(d.trace)-1]
	}
	return false
}

// seed loads an exploration fragment into the controller: the first
// execution replays trace exactly, subsequent backtracking stays above
// floor and under the per-choice ceilings.
func (d *dfs) seed(trace []choice, floor int) {
	d.trace = trace
	d.floor = floor
	d.prefixLen = len(trace)
	d.pos = 0
	d.corrupt = false
}

// split donates the shallowest unexplored alternatives of the fragment
// as a new work unit, or reports false when no split point exists. The
// donor keeps its current branch at the split index (its ceiling drops
// to taken+1); the recipient receives every remaining alternative
// there (taken+1 up to the donor's old bound) and nothing below it.
// The two fragments partition the donor's frontier: no leaf is lost or
// explored twice.
func (d *dfs) split() (unit, bool) {
	for i := d.floor; i < len(d.trace); i++ {
		c := d.trace[i]
		if c.taken+1 < c.bound() {
			nt := make([]choice, i+1)
			copy(nt, d.trace[:i+1])
			nt[i].taken++
			nt[i].ceil = c.bound()
			d.trace[i].ceil = c.taken + 1
			return unit{trace: nt, floor: i}, true
		}
	}
	return unit{}, false
}

// PickThread implements vm.Controller.
func (d *dfs) PickThread(runnable []int) int { return runnable[d.pick(len(runnable))] }

// PickRead implements vm.Controller.
func (d *dfs) PickRead(_ memmodel.Addr, eligible []int) int { return d.pick(len(eligible)) }

// PickNondet implements vm.Controller.
func (d *dfs) PickNondet(max int) int { return d.pick(max) }

// Check explores the program's executions under the model and reports
// whether any assertion can fail or any deadlock can occur.
//
// Check degrades gracefully: when a budget (time, executions) expires
// or the context is canceled before the state space is exhausted, the
// verdict is VerdictUnknown — never a false VerdictPass — and the
// result carries exploration statistics plus a resume token that
// continues the depth-first trajectory deterministically. Internal
// panics are contained by the diag guard and returned as errors. Check
// applies the option defaults and runs the frontier-split engine.
func Check(m *ir.Module, opts Options) (res *Result, err error) {
	defer diag.Guard("mc.Check", &err)
	if opts.MaxExecutions == 0 {
		opts.MaxExecutions = 1_000_000
	}
	if opts.MaxStepsPerExec == 0 {
		opts.MaxStepsPerExec = 100_000
	}
	if opts.TimeBudget == 0 {
		opts.TimeBudget = 10 * time.Second
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	return explore(m, opts)
}

// runOne drives a single execution to completion, pruning on visited
// states. It returns a violation message (or ""), whether the step
// budget truncated the run, and whether the visited cache pruned it.
// When a race detector is attached its happens-before fingerprint is
// mixed into the visited hash: two executions reaching the same memory
// state through different synchronization histories must not be
// collapsed, or a pruned branch could hide a race the surviving branch
// happens to order.
func runOne(v *vm.VM, d *dfs, visited *shardMap, det *race.Detector) (violation string, truncated, pruned bool) {
	for !v.Halted() {
		run := v.Runnable()
		if len(run) == 0 {
			if v.Done() {
				return "", false, false
			}
			return "deadlock: threads blocked with no runnable thread", false, false
		}
		ti := run[d.pick(len(run))]
		if err := v.StepThread(ti); err != nil {
			return fmt.Sprintf("runtime fault: %v", err), false, false
		}
		if v.Halted() {
			// Assertion failure or step limit: resolved below, before any
			// pruning — a halted state must never enter the visited cache,
			// or it could mask the violation on a later path.
			break
		}
		if !d.replaying() {
			h := v.StateHash()
			if det != nil {
				h = h*1099511628211 ^ det.Fingerprint()
			}
			if !visited.insert(h) {
				return "", false, true
			}
		}
	}
	r := v.Result()
	if r.Status == vm.StatusAssertFailed {
		return r.FailMsg, false, false
	}
	return "", r.Status == vm.StatusStepLimit, false
}

// replayTrace re-executes the current (violating) choice trace with
// tracing enabled and returns the visible-operation sequence.
func replayTrace(m *ir.Module, opts Options, d *dfs) []vm.TraceEvent {
	replay := &dfs{trace: d.trace, prefixLen: len(d.trace)}
	v, err := vm.New(m, vm.Options{
		Model:        opts.Model,
		Entries:      opts.Entries,
		Controller:   replay,
		MaxSteps:     opts.MaxStepsPerExec,
		TraceVisible: true,
	})
	if err != nil {
		return nil
	}
	// A fresh visited cache: the replay never prunes inside its own
	// prefix, and we want the full execution.
	runOne(v, replay, newShardMap(1, nil), nil)
	return v.Result().Trace
}
