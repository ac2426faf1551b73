// Package vm is a deterministic multi-threaded interpreter for AIR
// modules. It executes programs under a pluggable memory-consistency
// model (see internal/memmodel), with a pluggable controller for
// scheduling and weak-read choices, and accounts execution cost with a
// barrier-aware cycle model.
//
// The VM is the testbed substitute for the paper's Armv8 server: the
// performance evaluation measures cycle-model makespans, the dynamic
// barrier census of Table 4 comes from the VM's counters, and the
// stateless model checker (internal/mc) drives the same interpreter
// with an exhaustive controller.
package vm

import (
	"fmt"
	"math/rand"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Controller resolves all nondeterminism of an execution: which thread
// steps next, which message a weak load reads, and the values of
// nondet() inputs.
type Controller interface {
	// PickThread selects one of the runnable thread indices.
	PickThread(runnable []int) int
	// PickRead selects which of the n eligible messages a weak load at
	// addr reads: an index in [0, n), oldest eligible message first. The
	// eligible messages are always a contiguous run ending at the newest.
	PickRead(addr memmodel.Addr, n int) int
	// PickNondet returns a value in [0, max) for a nondet() builtin.
	PickNondet(max int) int
}

// RandomController is a seeded random controller; the default for
// performance runs and stress demos.
type RandomController struct{ Rng *rand.Rand }

// NewRandomController returns a controller seeded with seed.
func NewRandomController(seed int64) *RandomController {
	return &RandomController{Rng: rand.New(newSource(seed))}
}

// PickThread selects a uniformly random runnable thread.
func (c *RandomController) PickThread(runnable []int) int {
	return runnable[c.Rng.Intn(len(runnable))]
}

// PickRead selects the newest message with high probability and a stale
// one occasionally, mimicking how rarely weak behaviors occur on real
// hardware (the paper cites their low observed probability).
func (c *RandomController) PickRead(_ memmodel.Addr, n int) int {
	if n == 1 || c.Rng.Intn(8) != 0 {
		return n - 1
	}
	return c.Rng.Intn(n)
}

// PickNondet returns a uniform value in [0, max).
func (c *RandomController) PickNondet(max int) int { return c.Rng.Intn(max) }

// Costs is the cycle model: the relative costs mirror the Arm barrier
// study the paper builds on (Liu et al. 2020): implicit barriers
// (load-acquire/store-release and SC atomics) are cheap when the cache
// line is local and expensive when another core owns it, while explicit
// DMB fences are unconditionally expensive. The Contended surcharge is
// charged on atomic writes (stores, cmpxchg, rmw) to cells last written
// by a different thread — the exclusive-access line transfer that store
// buffers hide for plain stores but implicit barriers expose.
type Costs struct {
	Plain       int64 // plain (and relaxed-atomic) load/store: LDR/STR
	Arith       int64 // ALU ops, branches
	AtomicLoad  int64 // acquire or seq_cst load: LDAR
	AtomicStore int64 // release or seq_cst store: STLR
	RMW         int64 // cmpxchg / atomicrmw: LDAXR/STLXR pair
	FenceSC     int64 // explicit DMB ISH, base cost (no writes to drain)
	FenceWeak   int64 // explicit DMB ISHLD / ISHST, base cost
	// FenceDrain is the extra cost of a fence when the thread has
	// written shared memory since its previous fence (the store-buffer
	// drain a DMB forces); FenceDrainHot is the additional cost when one
	// of those writes ping-ponged a cell owned by another core (the
	// drain must wait out a coherence transfer).
	FenceDrain    int64
	FenceDrainHot int64
	Call          int64 // call/return overhead
	// Contended is the surcharge for an atomic write to a cell last
	// written by another thread (exclusive line acquisition).
	Contended int64
	// ContendedLoad is the surcharge for the first atomic load of a cell
	// since another thread last wrote it (shared line fill); repeated
	// reads hit the local cache and are free of it. ContendedPlain is
	// the smaller stall a plain load suffers for the same fill (out-of-
	// order execution hides part of the miss).
	ContendedLoad  int64
	ContendedPlain int64
}

// DefaultCosts returns the standard cycle model.
func DefaultCosts() Costs {
	return Costs{
		Plain: 1, Arith: 1, AtomicLoad: 3, AtomicStore: 5,
		RMW: 8, FenceSC: 5, FenceWeak: 3, FenceDrain: 12, FenceDrainHot: 30,
		Call: 2, Contended: 14, ContendedLoad: 20, ContendedPlain: 6,
	}
}

// accessCost maps a static ordering to its cost.
func (c Costs) accessCost(ord ir.MemOrder, isStore bool) int64 {
	switch ord {
	case ir.NotAtomic, ir.Relaxed:
		return c.Plain
	default:
		if isStore {
			return c.AtomicStore
		}
		return c.AtomicLoad
	}
}

// Counters is the dynamic operation census (the paper's Table 4).
type Counters struct {
	NonAtomicLoads  int64
	NonAtomicStores int64
	AtomicLoads     int64
	AtomicStores    int64
	RMWs            int64
	Fences          int64
}

// DefaultMaxSteps is the instruction budget of an execution whose
// Options.MaxSteps is zero.
const DefaultMaxSteps = 20_000_000

// Options configures an execution.
type Options struct {
	// Model is the memory model (the zero Model selects ModelSC).
	Model memmodel.Model
	// Entries are the functions started as the initial threads.
	Entries []string
	// Controller resolves nondeterminism; nil selects a seeded random
	// controller.
	Controller Controller
	Seed       int64
	// MaxSteps bounds the total instruction count (0 = DefaultMaxSteps).
	MaxSteps int64
	Costs    Costs
	// TraceVisible records every visible operation in Result.Trace
	// (counterexample replay in the model checker).
	TraceVisible bool
	// Profile attributes cycle costs per function in Result.FuncCycles.
	Profile bool
	// Watchdog enables the livelock watchdog: per-thread block-entry
	// accounting while running, and a per-thread spin diagnosis in
	// Result.Livelock when the step budget is exhausted.
	Watchdog bool
	// Hook observes memory accesses, fences and thread synchronization
	// events (race detection). Nil disables instrumentation entirely;
	// every event site is behind a nil check, so a disabled hook costs
	// one predictable branch.
	Hook Hook
	// Obs, when non-nil, publishes end-of-run tallies to the metrics
	// registry (vm.executions_completed, vm.steps_executed, the
	// vm.execution_steps histogram). The interpreter loop is untouched:
	// publication happens once when the run finishes.
	Obs *obs.Provider
}

// TraceEvent is one visible operation in an execution trace.
type TraceEvent struct {
	Thread int
	Fn     string
	Instr  string
}

// Status describes how an execution ended.
type Status int

// Execution outcomes.
const (
	// StatusDone: all threads ran to completion.
	StatusDone Status = iota
	// StatusAssertFailed: an assert() builtin observed a zero argument.
	StatusAssertFailed
	// StatusDeadlock: live threads exist but none is runnable.
	StatusDeadlock
	// StatusStepLimit: the step budget was exhausted (e.g. an unbounded
	// spinloop whose partner was never scheduled).
	StatusStepLimit
)

func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusAssertFailed:
		return "assert-failed"
	case StatusDeadlock:
		return "deadlock"
	case StatusStepLimit:
		return "step-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result reports an execution's outcome, counters and cost.
type Result struct {
	Status   Status
	FailMsg  string
	Steps    int64
	Counters Counters
	// ThreadCycles is the cycle-model cost per thread; MaxCycles (the
	// makespan) is the performance metric used by the benchmark harness.
	ThreadCycles []int64
	MaxCycles    int64
	TotalCycles  int64
	// Output collects print() builtin values.
	Output []int64
	// Returns holds each entry thread's return value (0 for void).
	Returns []int64
	// Trace holds the visible operations when Options.TraceVisible is
	// set, capped at maxTraceEvents.
	Trace []TraceEvent
	// FuncCycles attributes cycles per function when Options.Profile is
	// set.
	FuncCycles map[string]int64
	// Livelock is the watchdog's per-thread spin diagnosis, populated
	// when Options.Watchdog is set and Status is StatusStepLimit.
	Livelock []LivelockInfo
}

// Run executes the module's entry threads to completion under the
// options and returns the result. Internal panics (malformed modules
// that slipped past verification, interpreter bugs) are contained by
// the diag guard and returned as structured errors rather than
// crashing the caller.
func Run(m *ir.Module, opts Options) (res *Result, err error) {
	defer diag.Guard("vm.Run", &err)
	v, err := New(m, opts)
	if err != nil {
		return nil, err
	}
	return v.Run()
}
