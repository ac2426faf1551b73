package vm

import "math/rand"

// The schedulers draw from math/rand's generator: an additive lagged
// Fibonacci generator over 607 words with tap 273, whose stream fixes
// every schedule, every replay seed a report prints and every weakened
// module a stress screen vouches for. math/rand seeds it with 1,841
// serial steps of the Park–Miller generator x ← 48271·x mod (2³¹−1),
// each a division, while a stress schedule reseeds once and then draws
// only a few hundred values, so that seeding dominates a short
// schedule's fixed cost. lfgSource keeps the generator and its stream,
// and seeds it in closed form: Park–Miller step k from x₀ is x₀·48271ᵏ,
// so state word i, built from steps 21+3i, 22+3i and 23+3i, costs one
// multiplication by a precomputed power and two by the multiplier, each
// reduced with Mersenne shifts instead of a division.

const (
	lfgLen  = 607 // state words
	lfgTap  = 273 // lag of the second operand
	lfgFeed = lfgLen - lfgTap
	// pmMod and pmMul are the seeding generator's modulus 2³¹−1 and
	// multiplier.
	pmMod = 1<<31 - 1
	pmMul = 48271
	// pmZero replaces a seed that is 0 modulo pmMod, as math/rand does.
	pmZero = 89482311
)

var (
	// seedStep[i] is 48271^(21+3i) mod (2³¹−1): the factor taking x₀ to
	// the first of state word i's three seeding steps.
	seedStep [lfgLen]uint64
	// lfgCooked is the constant math/rand XORs into each seeded state
	// word.
	lfgCooked [lfgLen]int64
)

func init() {
	cube := pmMulMod(pmMulMod(pmMul, pmMul), pmMul)
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = pmMulMod(p, pmMul)
	}
	for i := range seedStep {
		seedStep[i] = p
		p = pmMulMod(p, cube)
	}
	lfgCooked = recoverCooked()
}

// recoverCooked derives math/rand's seeding constants from its own
// stream, which keeps 607 opaque words out of the tree. Seeded with 1,
// the generator's first 607 outputs determine its post-seed state v:
// output k adds the words at feed position 333−k (mod 607) and tap
// position 606−k, and writes its sum back at the feed position, so the
// tap operand of output k ≥ 273 is output k−273. Solving back to front
// gives v, and v XOR the seed-1 Park–Miller words is the constant. It
// runs before lfgCooked is set, so Seed(1) yields those words alone.
func recoverCooked() [lfgLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var x, v [lfgLen]int64
	for k := range x {
		x[k] = int64(src.Uint64())
	}
	for k := lfgTap; k < lfgLen; k++ {
		feed := lfgFeed - 1 - k
		if feed < 0 {
			feed += lfgLen
		}
		v[feed] = x[k] - x[k-lfgTap]
	}
	for k := 0; k < lfgTap; k++ {
		v[lfgFeed-1-k] = x[k] - v[lfgLen-1-k]
	}
	var words lfgSource
	words.Seed(1)
	for i := range v {
		v[i] ^= words.vec[i]
	}
	return v
}

// pmMulMod returns a·b mod (2³¹−1) for a, b < 2³¹ whose product is not
// a multiple of 2³¹−1: the 62-bit product folds once at bit 31
// (2³¹ ≡ 1) to at most twice the modulus, which leaves at most one
// modulus to subtract.
func pmMulMod(a, b uint64) uint64 {
	z := a * b
	z = z&pmMod + z>>31
	if z >= pmMod {
		z -= pmMod
	}
	return z
}

// lfgSource is math/rand's generator with closed-form seeding: after
// Seed(s) it yields exactly the stream of rand.NewSource(s). It
// implements rand.Source64; the zero value must be seeded before use.
type lfgSource struct {
	tap, feed int
	vec       [lfgLen]int64
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *lfgSource {
	s := new(lfgSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *lfgSource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfgFeed
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = pmZero
	}
	x0 := uint64(seed)
	for i := range s.vec {
		a := pmMulMod(x0, seedStep[i])
		b := pmMulMod(a, pmMul)
		c := pmMulMod(b, pmMul)
		s.vec[i] = int64(a<<40^b<<20^c) ^ lfgCooked[i]
	}
}

// Int63 implements rand.Source.
func (s *lfgSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64.
func (s *lfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
