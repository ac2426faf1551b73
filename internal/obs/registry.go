package obs

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the metrics snapshot JSON schema. Bump it
// when the snapshot shape changes; validators accept only the current
// version. v2 added approximate p50/p95/p99 quantiles to histogram
// snapshots.
const SchemaVersion = "atomig.metrics/v2"

// nameRE is the metric naming convention: `subsystem.noun_verbed` —
// a lowercase subsystem, a dot, then lowercase words joined by
// underscores (docs/OBSERVABILITY.md lists the catalog).
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// ValidName reports whether name follows the naming convention.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Counter is a monotonically increasing atomic counter. All methods
// are nil-safe: a nil counter (disabled provider) is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations
// whose bit length is i, i.e. value 0 lands in bucket 0 and bucket i>0
// covers [2^(i-1), 2^i - 1]. Log-scale with power-of-two boundaries,
// so bucketing is one bits.Len64 — no float math on the hot path.
const histBuckets = 65

// Histogram is a fixed log-scale histogram of non-negative int64
// observations (negative values clamp to 0). Nil-safe like Counter.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations so far (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// Registry is a registry of named metrics: three maps under one lock.
// Resolving a handle (Counter/Gauge/Histogram) takes the read lock, so
// callers resolve handles once per run, not per event; the metrics
// themselves are plain atomics and never take the lock.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

func checkName(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: metric name %q violates the subsystem.noun_verbed convention", name))
	}
}

// intern returns m's instrument for name, creating it on first use.
func intern[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	x := m[name]
	r.mu.RUnlock()
	if x != nil {
		return x
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if x = m[name]; x == nil {
		x = new(T)
		m[name] = x
	}
	return x
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry yields a nil, no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return intern(r, r.counters, name)
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return intern(r, r.gauges, name)
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return intern(r, r.histograms, name)
}

// Snapshot is a point-in-time copy of every metric, in the versioned
// JSON shape `-metrics` files carry.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's exported state. Buckets are
// sorted by upper bound and omit empty buckets. P50/P95/P99 are
// approximate quantiles (schema v2): each is the upper bound of the
// bucket the quantile falls in, so they are exact only up to the
// power-of-two bucket resolution and always upper bounds of the true
// value.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	P50     int64            `json:"p50,omitempty"`
	P95     int64            `json:"p95,omitempty"`
	P99     int64            `json:"p99,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Quantile returns the approximate q-quantile (0 < q ≤ 1) from the
// snapshot's buckets: the upper bound of the first bucket at which the
// cumulative count reaches ⌈q·count⌉. Returns 0 for an empty
// histogram.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= rank {
			return b.Upper
		}
	}
	return h.Buckets[len(h.Buckets)-1].Upper
}

// BucketSnapshot is one non-empty histogram bucket: the inclusive
// upper bound of the value range and the observation count.
type BucketSnapshot struct {
	Upper int64 `json:"le"`
	N     int64 `json:"n"`
}

// Snapshot captures every registered metric. Concurrent updates during
// the capture are safe; each metric is read atomically (a histogram's
// count/sum/bucket reads are individually atomic, not mutually).
// Nil-safe: a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Schema:     SchemaVersion,
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		// Index order is upper-bound order, so the slice is sorted by
		// construction.
		for b := 0; b < histBuckets; b++ {
			if n := h.buckets[b].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnapshot{Upper: BucketUpper(b), N: n})
			}
		}
		// Quantiles are derived from the bucket reads above, so they are
		// self-consistent even under concurrent observation.
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		snap.Histograms[name] = hs
	}
	return snap
}
