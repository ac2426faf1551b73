package vm

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/memmodel"
)

// Scheduler is the pluggable nondeterminism resolver of an execution.
// It is an alias of Controller: the model checker plugs an exhaustive
// replay controller in through the same seam the fault-injection
// schedulers below use.
type Scheduler = Controller

// SchedMode selects one of the seed-driven fault-injection scheduling
// strategies. The adversarial modes are inspired by C11Tester-style
// biased exploration: random scheduling almost never exhibits the rare
// interleavings where weak-memory bugs live, so the stress harness runs
// every program under each mode.
type SchedMode int

// Scheduling modes.
const (
	// SchedRandom is the uniform seeded baseline (RandomController).
	SchedRandom SchedMode = iota
	// SchedStarve starves one victim thread: the victim only runs when
	// it is the sole runnable thread or with small probability. This
	// stretches the windows between a writer's store and the reader
	// observing it.
	SchedStarve
	// SchedDelay delays store-buffer drains: weak reads prefer stale
	// messages, modelling writes that linger unflushed for as long as
	// the model allows.
	SchedDelay
	// SchedReorder pessimizes the reorder window: every weak read picks
	// uniformly among all eligible messages and threads advance
	// round-robin, maximizing the visible-reorder surface per step.
	SchedReorder
	// SchedBurst runs threads in long preemption-free bursts with
	// abrupt switches, the pattern that exposes missing fences at
	// publication boundaries (one thread completes a whole critical
	// region while another observes it mid-flight).
	SchedBurst
)

// AllSchedModes returns every mode, for stress sweeps.
func AllSchedModes() []SchedMode {
	return []SchedMode{SchedRandom, SchedStarve, SchedDelay, SchedReorder, SchedBurst}
}

func (m SchedMode) String() string {
	switch m {
	case SchedRandom:
		return "random"
	case SchedStarve:
		return "starve"
	case SchedDelay:
		return "delay"
	case SchedReorder:
		return "reorder"
	case SchedBurst:
		return "burst"
	}
	return fmt.Sprintf("SchedMode(%d)", int(m))
}

// ParseSchedMode parses a mode name as accepted by the CLIs' -sched
// flag.
func ParseSchedMode(s string) (SchedMode, error) {
	for _, m := range AllSchedModes() {
		if s == m.String() {
			return m, nil
		}
	}
	names := make([]string, 0, len(AllSchedModes()))
	for _, m := range AllSchedModes() {
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("unknown scheduler mode %q (want %s)", s, strings.Join(names, ", "))
}

// GridSeed derives the scheduler seed for one cell of a (mode, seed)
// sweep grid from a base seed. Sweeps (the stress engine, difftest)
// must not hand the same RNG seed to two grid cells: two schedulers
// of the same mode seeded identically replay the same schedule, so a
// grid that recycles seed values across modes or workers
// silently halves its coverage while reporting the full execution
// count. GridSeed is a pure function of (base, mode, seed) — no
// per-worker state — so the derived seed set is identical for every
// worker count and partitioning, and a splitmix64-style finalizer
// spreads the cells across the full 64-bit space (collisions between
// distinct cells are 2^-64 events; TestGridSeedDistinct pins
// distinctness over the grids the sweeps actually use).
func GridSeed(base int64, mode SchedMode, seed int64) int64 {
	x := uint64(base)
	x = splitmix(x + 0x9e3779b97f4a7c15*uint64(mode+1))
	x = splitmix(x + uint64(seed))
	if x == 0 {
		x = 0x9e3779b97f4a7c15 // seed 0 is valid (it seeds as 89482311) but keep seeds nonzero for legibility
	}
	return int64(x)
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewScheduler returns the seeded scheduler for the mode. The same
// (mode, seed) pair always produces the same decision sequence.
func NewScheduler(mode SchedMode, seed int64) Scheduler {
	w := NewWorkerScheduler()
	w.Reseed(mode, seed)
	return w.cur
}

// WorkerScheduler is the scheduler a sweep worker reseeds for each
// schedule of its share of the grid: one generator and one scheduler of
// each mode, so a schedule allocates nothing. After Reseed(mode, seed)
// it makes exactly the decisions of NewScheduler(mode, seed): seeding
// rewrites the whole generator state (in closed form, rng.go), so a
// reseeded generator yields a fresh one's stream.
type WorkerScheduler struct {
	rng     *rand.Rand
	cur     Scheduler
	random  RandomController
	starve  starveScheduler
	delay   delayScheduler
	reorder reorderScheduler
	burst   burstScheduler
}

// NewWorkerScheduler returns a worker scheduler; call Reseed before
// each schedule.
func NewWorkerScheduler() *WorkerScheduler {
	return &WorkerScheduler{rng: rand.New(new(lfgSource))}
}

// Reseed starts the mode's scheduler afresh on seed.
func (w *WorkerScheduler) Reseed(mode SchedMode, seed int64) {
	w.rng.Seed(seed)
	switch mode {
	case SchedStarve:
		w.starve = starveScheduler{rng: w.rng}
		w.cur = &w.starve
	case SchedDelay:
		w.delay = delayScheduler{rng: w.rng}
		w.cur = &w.delay
	case SchedReorder:
		w.reorder = reorderScheduler{rng: w.rng}
		w.cur = &w.reorder
	case SchedBurst:
		w.burst = burstScheduler{rng: w.rng}
		w.cur = &w.burst
	default:
		w.random = RandomController{Rng: w.rng}
		w.cur = &w.random
	}
}

// PickThread implements Controller.
func (w *WorkerScheduler) PickThread(runnable []int) int { return w.cur.PickThread(runnable) }

// PickRead implements Controller.
func (w *WorkerScheduler) PickRead(a memmodel.Addr, n int) int { return w.cur.PickRead(a, n) }

// PickNondet implements Controller.
func (w *WorkerScheduler) PickNondet(max int) int { return w.cur.PickNondet(max) }

// starveScheduler starves one victim thread; the victim rotates
// occasionally so every thread takes a turn being the one that never
// gets the CPU.
type starveScheduler struct {
	rng    *rand.Rand
	victim int
	picks  int
	maxID  int
}

func (s *starveScheduler) PickThread(runnable []int) int {
	s.picks++
	if s.picks%4096 == 0 {
		s.victim++ // rotate the starved thread
	}
	for _, ti := range runnable {
		if ti > s.maxID {
			s.maxID = ti
		}
	}
	if len(runnable) == 1 {
		return runnable[0]
	}
	victim := s.victim % (s.maxID + 1)
	// With probability 1/64 the victim sneaks a step in anyway, so
	// starvation stretches windows without deterministically livelocking
	// two-sided protocols.
	if s.rng.Intn(64) == 0 {
		return runnable[s.rng.Intn(len(runnable))]
	}
	others := 0
	for _, ti := range runnable {
		if ti != victim {
			others++
		}
	}
	if others == 0 {
		return runnable[s.rng.Intn(len(runnable))]
	}
	// The k-th runnable thread that is not the victim.
	k := s.rng.Intn(others)
	for _, ti := range runnable {
		if ti != victim {
			if k == 0 {
				return ti
			}
			k--
		}
	}
	panic("unreachable")
}

func (s *starveScheduler) PickRead(_ memmodel.Addr, n int) int { return n - 1 }

func (s *starveScheduler) PickNondet(max int) int { return s.rng.Intn(max) }

// delayScheduler keeps weak reads on stale messages: half the reads take
// the oldest eligible message, a quarter a random one, the rest the
// newest. Forward progress is preserved (the newest value is seen with
// probability 1 over time) while stale windows last far longer than
// under the baseline's newest-biased oracle.
type delayScheduler struct{ rng *rand.Rand }

func (s *delayScheduler) PickThread(runnable []int) int {
	return runnable[s.rng.Intn(len(runnable))]
}

func (s *delayScheduler) PickRead(_ memmodel.Addr, n int) int {
	switch s.rng.Intn(4) {
	case 0, 1:
		return 0 // oldest eligible message
	case 2:
		return s.rng.Intn(n)
	default:
		return n - 1
	}
}

func (s *delayScheduler) PickNondet(max int) int { return s.rng.Intn(max) }

// reorderScheduler maximizes visible reordering: threads advance
// round-robin (every thread is always mid-flight somewhere) and every
// weak read picks uniformly among all eligible messages.
type reorderScheduler struct {
	rng  *rand.Rand
	next int
}

func (s *reorderScheduler) PickThread(runnable []int) int {
	s.next++
	return runnable[s.next%len(runnable)]
}

func (s *reorderScheduler) PickRead(_ memmodel.Addr, n int) int {
	return s.rng.Intn(n)
}

func (s *reorderScheduler) PickNondet(max int) int { return s.rng.Intn(max) }

// burstScheduler runs one thread for a geometric burst, then switches.
type burstScheduler struct {
	rng  *rand.Rand
	cur  int
	left int
}

func (s *burstScheduler) PickThread(runnable []int) int {
	for _, ti := range runnable {
		if ti == s.cur && s.left > 0 {
			s.left--
			return ti
		}
	}
	s.cur = runnable[s.rng.Intn(len(runnable))]
	s.left = 1 << (s.rng.Intn(9) + 2) // bursts of 8..2048 steps
	return s.cur
}

func (s *burstScheduler) PickRead(_ memmodel.Addr, n int) int {
	if n == 1 || s.rng.Intn(8) != 0 {
		return n - 1
	}
	return s.rng.Intn(n)
}

func (s *burstScheduler) PickNondet(max int) int { return s.rng.Intn(max) }
