// Package obs is the unified observability layer shared by every
// subsystem of the reproduction: a metrics registry (atomic counters,
// gauges, fixed log-scale histograms), hierarchical span tracing with
// a Chrome trace_event JSON exporter, and a pprof helper for the
// long-running commands.
//
// The seam follows the vm.Options.Hook contract: a nil *Provider means
// the instrumented subsystem touches no atomics and allocates nothing
// on its hot paths — every Track, Span and Counter method is nil-safe,
// so call sites read straight-line (`span := track.Begin(...); ...;
// span.End()`) whether or not observability is on. The zero-cost
// contract is enforced by the allocation and timing gates in
// internal/bench (obsoverhead).
//
// Metric names follow one convention across the codebase:
// `subsystem.noun_verbed` (for example `mc.executions_pruned`,
// `pipeline.spinloops_found`). The registry rejects names that do not
// match; the catalog lives in docs/OBSERVABILITY.md.
package obs

// Provider bundles the metrics registry, the (optional) tracer, and
// the (optional) structured event logger a subsystem reports into. A
// nil Provider disables instrumentation entirely; a Provider with a
// nil Tracer collects metrics only; a nil Logs drops events.
type Provider struct {
	Registry *Registry
	Tracer   *Tracer
	Logs     *Logger
}

// New returns a metrics-only provider.
func New() *Provider { return &Provider{Registry: NewRegistry()} }

// NewTracing returns a provider that collects both metrics and spans.
func NewTracing() *Provider {
	return &Provider{Registry: NewRegistry(), Tracer: NewTracer()}
}

// Counter resolves a counter handle; nil-safe (a nil provider or
// registry yields a nil, no-op counter).
func (p *Provider) Counter(name string) *Counter {
	if p == nil {
		return nil
	}
	return p.Registry.Counter(name)
}

// Gauge resolves a gauge handle; nil-safe.
func (p *Provider) Gauge(name string) *Gauge {
	if p == nil {
		return nil
	}
	return p.Registry.Gauge(name)
}

// Histogram resolves a histogram handle; nil-safe.
func (p *Provider) Histogram(name string) *Histogram {
	if p == nil {
		return nil
	}
	return p.Registry.Histogram(name)
}

// Log returns the provider's event logger; nil when the provider has
// none, which turns every Event call site into a no-op.
func (p *Provider) Log() *Logger {
	if p == nil {
		return nil
	}
	return p.Logs
}

// Track resolves a named trace track; nil when the provider or its
// tracer is nil, which turns every span call site into a no-op.
func (p *Provider) Track(name string) *Track {
	if p == nil || p.Tracer == nil {
		return nil
	}
	return p.Tracer.Track(name)
}

// Snapshot captures the registry; nil-safe (empty snapshot).
func (p *Provider) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Schema: SchemaVersion}
	}
	return p.Registry.Snapshot()
}
