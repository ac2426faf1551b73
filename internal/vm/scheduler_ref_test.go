package vm

// The fault-injection schedulers as they were before worker reseeding
// and count-based read picks, kept verbatim apart from renames: the
// reference the scheduler test holds NewScheduler and WorkerScheduler
// to.

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
)

// refScheduler is the reference schedulers' interface: PickRead takes
// the eligible timestamps.
type refScheduler interface {
	PickThread(runnable []int) int
	PickRead(addr memmodel.Addr, eligible []int) int
	PickNondet(max int) int
}

// refRandom is a seeded random controller; the default for
// performance runs and stress demos.
type refRandom struct{ Rng *rand.Rand }

// newRefRandom returns a controller seeded with seed.
func newRefRandom(seed int64) *refRandom {
	return &refRandom{Rng: rand.New(rand.NewSource(seed))}
}

// PickThread selects a uniformly random runnable thread.
func (c *refRandom) PickThread(runnable []int) int {
	return runnable[c.Rng.Intn(len(runnable))]
}

// PickRead selects the newest message with high probability and a stale
// one occasionally, mimicking how rarely weak behaviors occur on real
// hardware (the paper cites their low observed probability).
func (c *refRandom) PickRead(_ memmodel.Addr, eligible []int) int {
	if len(eligible) == 1 || c.Rng.Intn(8) != 0 {
		return len(eligible) - 1
	}
	return c.Rng.Intn(len(eligible))
}

// PickNondet returns a uniform value in [0, max).
func (c *refRandom) PickNondet(max int) int { return c.Rng.Intn(max) }

// refNewScheduler returns the seeded scheduler for the mode. The same
// (mode, seed) pair always produces the same decision sequence.
func refNewScheduler(mode SchedMode, seed int64) refScheduler {
	rng := rand.New(rand.NewSource(seed))
	switch mode {
	case SchedStarve:
		return &refStarve{rng: rng}
	case SchedDelay:
		return &refDelay{rng: rng}
	case SchedReorder:
		return &refReorder{rng: rng}
	case SchedBurst:
		return &refBurst{rng: rng}
	default:
		return newRefRandom(seed)
	}
}

// refStarve starves one victim thread; the victim rotates
// occasionally so every thread takes a turn being the one that never
// gets the CPU.
type refStarve struct {
	rng    *rand.Rand
	victim int
	picks  int
	maxID  int
}

func (s *refStarve) PickThread(runnable []int) int {
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
	others := make([]int, 0, len(runnable))
	for _, ti := range runnable {
		if ti != victim {
			others = append(others, ti)
		}
	}
	if len(others) == 0 {
		return runnable[s.rng.Intn(len(runnable))]
	}
	return others[s.rng.Intn(len(others))]
}

func (s *refStarve) PickRead(_ memmodel.Addr, eligible []int) int {
	return len(eligible) - 1
}

func (s *refStarve) PickNondet(max int) int { return s.rng.Intn(max) }

// refDelay keeps weak reads on stale messages: half the reads take
// the oldest eligible message, a quarter a random one, the rest the
// newest. Forward progress is preserved (the newest value is seen with
// probability 1 over time) while stale windows last far longer than
// under the baseline's newest-biased oracle.
type refDelay struct{ rng *rand.Rand }

func (s *refDelay) PickThread(runnable []int) int {
	return runnable[s.rng.Intn(len(runnable))]
}

func (s *refDelay) PickRead(_ memmodel.Addr, eligible []int) int {
	switch s.rng.Intn(4) {
	case 0, 1:
		return 0 // oldest eligible message
	case 2:
		return s.rng.Intn(len(eligible))
	default:
		return len(eligible) - 1
	}
}

func (s *refDelay) PickNondet(max int) int { return s.rng.Intn(max) }

// refReorder maximizes visible reordering: threads advance
// round-robin (every thread is always mid-flight somewhere) and every
// weak read picks uniformly among all eligible messages.
type refReorder struct {
	rng  *rand.Rand
	next int
}

func (s *refReorder) PickThread(runnable []int) int {
	s.next++
	return runnable[s.next%len(runnable)]
}

func (s *refReorder) PickRead(_ memmodel.Addr, eligible []int) int {
	return s.rng.Intn(len(eligible))
}

func (s *refReorder) PickNondet(max int) int { return s.rng.Intn(max) }

// refBurst runs one thread for a geometric burst, then switches.
type refBurst struct {
	rng  *rand.Rand
	cur  int
	left int
}

func (s *refBurst) PickThread(runnable []int) int {
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

func (s *refBurst) PickRead(_ memmodel.Addr, eligible []int) int {
	if len(eligible) == 1 || s.rng.Intn(8) != 0 {
		return len(eligible) - 1
	}
	return s.rng.Intn(len(eligible))
}

func (s *refBurst) PickNondet(max int) int { return s.rng.Intn(max) }

// TestWorkerSchedulerMatchesReference: for every mode and 64 grid
// seeds, one reseeded worker scheduler and a fresh NewScheduler make
// exactly the reference schedulers' PickThread, PickRead and PickNondet
// decisions, over random runnable sets with and without the starve
// victim.
func TestWorkerSchedulerMatchesReference(t *testing.T) {
	w := NewWorkerScheduler()
	for _, mode := range AllSchedModes() {
		for s := int64(1); s <= 64; s++ {
			seed := GridSeed(7, mode, s)
			ref := refNewScheduler(mode, seed)
			w.Reseed(mode, seed)
			fresh := NewScheduler(mode, seed)
			script := rand.New(rand.NewSource(seed ^ 0x5eed))
			for step := 0; step < 6000; step++ { // past the starve victim's 4096-pick rotation
				switch op := script.Intn(10); {
				case op < 7:
					runnable := randomRunnable(script)
					want := ref.PickThread(append([]int(nil), runnable...))
					if got := w.PickThread(runnable); got != want {
						t.Fatalf("%s seed %d step %d: worker PickThread(%v) = %d, reference %d", mode, s, step, runnable, got, want)
					}
					if got := fresh.PickThread(runnable); got != want {
						t.Fatalf("%s seed %d step %d: NewScheduler PickThread(%v) = %d, reference %d", mode, s, step, runnable, got, want)
					}
				case op < 9:
					n := 1 + script.Intn(6)
					eligible := make([]int, n)
					for i := range eligible {
						eligible[i] = 3 + i
					}
					want := ref.PickRead(0x1000, eligible)
					if got := w.PickRead(0x1000, n); got != want {
						t.Fatalf("%s seed %d step %d: worker PickRead(%d) = %d, reference %d", mode, s, step, n, got, want)
					}
					if got := fresh.PickRead(0x1000, n); got != want {
						t.Fatalf("%s seed %d step %d: NewScheduler PickRead(%d) = %d, reference %d", mode, s, step, n, got, want)
					}
				default:
					max := 1 + script.Intn(4)
					want := ref.PickNondet(max)
					if got := w.PickNondet(max); got != want {
						t.Fatalf("%s seed %d step %d: worker PickNondet = %d, reference %d", mode, s, step, got, want)
					}
					if got := fresh.PickNondet(max); got != want {
						t.Fatalf("%s seed %d step %d: NewScheduler PickNondet = %d, reference %d", mode, s, step, got, want)
					}
				}
			}
		}
	}
}

// randomRunnable draws a sorted set of distinct thread indices below 5:
// some sets hold the starve victim, some do not, and single-thread sets
// take the scheduler's fast path.
func randomRunnable(r *rand.Rand) []int {
	var out []int
	for len(out) == 0 {
		for ti := 0; ti < 5; ti++ {
			if r.Intn(2) == 0 {
				out = append(out, ti)
			}
		}
	}
	return out
}
