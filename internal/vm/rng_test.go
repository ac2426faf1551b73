package vm

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many Uint64 draws the differential tests compare:
// past two wraps of the 607-word lag table.
const sourceDraws = 1300

// edgeSeeds are the seeds where math/rand's seed reduction branches:
// zero and the multiples of 2³¹−1 (which seed as 89482311), negative
// seeds, 89482311 itself and the extremes of int64.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, pmZero, -pmZero, pmZero + pmMod,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / pmMod} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*pmMod+d, -k*pmMod+d)
		}
	}
	return seeds
}

// gridSeeds are the scheduler seeds of the default sweep grid (base 1,
// every mode) out to 512 ordinals, which holds the weakener's screen
// grid (the first 32 ordinals of each mode).
func gridSeeds() []int64 {
	var seeds []int64
	for _, mode := range AllSchedModes() {
		for ord := int64(1); ord <= 512; ord++ {
			seeds = append(seeds, GridSeed(1, mode, ord))
		}
	}
	return seeds
}

// schedBounds lists, per mode, the bounds its scheduler passes to Intn:
// runnable-set sizes, eligible-message counts and nondet ranges up to
// 6, plus each mode's own constants.
var schedBounds = map[SchedMode][]int{
	SchedRandom:  {1, 2, 3, 4, 5, 6, 8},
	SchedStarve:  {64, 1, 2, 3, 4, 5, 6},
	SchedDelay:   {1, 2, 3, 4, 5, 6},
	SchedReorder: {1, 2, 3, 4, 5, 6},
	SchedBurst:   {9, 8, 1, 2, 3, 4, 5, 6},
}

// checkSource compares the closed-form source seeded with seed against
// rand.NewSource(seed) over the first draws Uint64 outputs, reseeding
// src rather than building it, as a sweep worker does.
func checkSource(t *testing.T, src *lfgSource, seed int64, draws int) {
	t.Helper()
	src.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < draws; k++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, got, want)
		}
	}
}

// TestSourceMatchesMathRand: the closed-form seeding yields math/rand's
// stream, so every schedule, replay seed and weakened module stays as
// it was. Over the edge seeds and 2,560 grid seeds, the first 1,300
// draws equal rand.NewSource's, and a reseeded WorkerScheduler's
// generator makes each mode's Intn draws as a fresh math/rand one.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append(edgeSeeds(), gridSeeds()...)
	src := new(lfgSource)
	w := NewWorkerScheduler()
	for _, seed := range seeds {
		checkSource(t, src, seed, sourceDraws)
		if got, want := newSource(seed).Int63(), rand.NewSource(seed).Int63(); got != want {
			t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, got, want)
		}
		for _, mode := range AllSchedModes() {
			w.Reseed(mode, seed)
			ref := rand.New(rand.NewSource(seed))
			bounds := schedBounds[mode]
			for k := 0; k < 200; k++ {
				n := bounds[k%len(bounds)]
				if got, want := w.rng.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("%s seed %d: Intn(%d) draw %d = %d, math/rand %d", mode, seed, n, k, got, want)
				}
			}
		}
	}
}

// FuzzSourceMatchesMathRand holds the closed-form source to math/rand
// for arbitrary seeds and draw counts (up to 4,096 draws).
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds() {
		f.Add(seed, uint16(sourceDraws))
	}
	f.Add(GridSeed(1, SchedDelay, 7), uint16(1))
	src := new(lfgSource)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkSource(t, src, seed, int(draws%4097))
	})
}

// BenchmarkSourceSeed compares one closed-form seeding with math/rand's.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("closed-form", func(b *testing.B) {
		src := new(lfgSource)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
