package mc

import (
	"math/bits"
	"sync"

	"repro/internal/obs"
)

// shardsPerWorker oversizes the shard count relative to the worker
// count so two workers probing simultaneously rarely pick the same
// shard: with 8 shards per worker a uniform probe collides with
// probability 1/8 per concurrent pair, and the state hashes are well
// mixed (splitmix64 finalizer), so the high bits used for shard
// selection are uniform.
const shardsPerWorker = 8

// shardMap is the lock-striped visited-state cache runOne prunes
// against, shared by the engine's workers. The shard index comes from the hash's
// high bits (the map key inside a shard still uses the full hash), and
// the shard count is a power of two so selection is a shift.
type shardMap struct {
	shards []shard
	shift  uint
	// nolock skips the mutexes entirely when a single worker owns the
	// cache (-j 1 pays no synchronization).
	nolock bool
	// contended counts lock acquisitions that found the shard already
	// held (TryLock failed) — the contention signal atomig-mc -stats
	// surfaces (registry metric mc.shard_locks_contended).
	contended *obs.Counter
}

type shard struct {
	mu sync.Mutex
	m  map[uint64]bool
	// Pad each shard past a cache line so neighbouring shard locks do
	// not false-share.
	_ [40]byte
}

// newShardMap returns a cache with shardsPerWorker power-of-two shards
// per worker; contended is the registry counter the TryLock-fail path
// feeds.
func newShardMap(workers int, contended *obs.Counter) *shardMap {
	n := 1
	for n < workers*shardsPerWorker {
		n <<= 1
	}
	s := &shardMap{
		shards:    make([]shard, n),
		shift:     uint(64 - bits.TrailingZeros(uint(n))),
		nolock:    workers <= 1,
		contended: contended,
	}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]bool)
	}
	return s
}

// insert records h, reporting whether it was new.
func (s *shardMap) insert(h uint64) bool {
	sh := &s.shards[h>>s.shift]
	if s.nolock {
		if sh.m[h] {
			return false
		}
		sh.m[h] = true
		return true
	}
	if !sh.mu.TryLock() {
		s.contended.Inc()
		sh.mu.Lock()
	}
	seen := sh.m[h]
	if !seen {
		sh.m[h] = true
	}
	sh.mu.Unlock()
	return !seen
}

// size returns the total number of states held. Callers must be
// quiesced (no concurrent inserts).
func (s *shardMap) size() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].m)
	}
	return n
}

// flatten copies the cache into one plain map (resume tokens). Callers
// must be quiesced.
func (s *shardMap) flatten() map[uint64]bool {
	out := make(map[uint64]bool, s.size())
	for i := range s.shards {
		for h := range s.shards[i].m {
			out[h] = true
		}
	}
	return out
}
