package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// jsonDecodeStrict decodes one JSON value from r, rejecting unknown
// fields.
func jsonDecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// This file is the file-format boundary of the observability layer:
// the `-metrics` snapshot (versioned schema, see SchemaVersion) and
// the `-trace` Chrome trace_event export, plus the validators
// `atomig-bench -check-metrics/-check-trace` and `make obs-smoke` run
// against both.

// EncodeMetrics renders a snapshot as indented JSON.
func EncodeMetrics(snap Snapshot) ([]byte, error) {
	return json.MarshalIndent(snap, "", "  ")
}

// WriteMetricsFile writes the snapshot to path.
func WriteMetricsFile(path string, snap Snapshot) error {
	data, err := EncodeMetrics(snap)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateMetrics checks that data is a well-formed metrics snapshot:
// the schema version is the current one, every metric name follows the
// naming convention, each histogram's buckets are sorted with counts
// that sum to its count, and quantiles are ordered p50 ≤ p95 ≤ p99.
func ValidateMetrics(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("metrics: not a snapshot: %w", err)
	}
	if snap.Schema != SchemaVersion {
		return fmt.Errorf("metrics: schema %q, want %q", snap.Schema, SchemaVersion)
	}
	for name := range snap.Counters {
		if !ValidName(name) {
			return fmt.Errorf("metrics: counter %q violates the naming convention", name)
		}
	}
	for name := range snap.Gauges {
		if !ValidName(name) {
			return fmt.Errorf("metrics: gauge %q violates the naming convention", name)
		}
	}
	for name, h := range snap.Histograms {
		if !ValidName(name) {
			return fmt.Errorf("metrics: histogram %q violates the naming convention", name)
		}
		var total int64
		for i, b := range h.Buckets {
			if b.N <= 0 {
				return fmt.Errorf("metrics: histogram %q bucket le=%d has non-positive count %d", name, b.Upper, b.N)
			}
			if i > 0 && h.Buckets[i-1].Upper >= b.Upper {
				return fmt.Errorf("metrics: histogram %q buckets not sorted at le=%d", name, b.Upper)
			}
			total += b.N
		}
		if total != h.Count {
			return fmt.Errorf("metrics: histogram %q buckets sum to %d, count says %d", name, total, h.Count)
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			return fmt.Errorf("metrics: histogram %q quantiles out of order: p50=%d p95=%d p99=%d", name, h.P50, h.P95, h.P99)
		}
	}
	return nil
}

// traceFile is the exported trace container: the object form of the
// Chrome trace format, which every viewer accepts.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// EncodeTrace renders the tracer's events as Chrome trace-event JSON.
func EncodeTrace(t *Tracer) ([]byte, error) {
	return json.MarshalIndent(traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}, "", "  ")
}

// WriteTraceFile writes the tracer's export to path.
func WriteTraceFile(path string, t *Tracer) error {
	data, err := EncodeTrace(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateTrace checks that data is a well-formed Chrome trace-event
// export: known phases, timestamps sorted non-decreasingly, and every
// track's B/E events matched in LIFO order with no dangling opens.
func ValidateTrace(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tf traceFile
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("trace: not a trace-event file: %w", err)
	}
	lastTS := -1.0
	stacks := make(map[int][]string) // tid → open span names
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		switch ev.Ph {
		case "M":
			continue // metadata carries no timeline position
		case "B", "E", "i":
		default:
			return fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative timestamp", i, ev.Name)
		}
		if ev.TS < lastTS {
			return fmt.Errorf("trace: event %d (%s) out of order: ts %.3f after %.3f", i, ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q on tid %d with no open span", i, ev.Name, ev.TID)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return fmt.Errorf("trace: event %d: E %q on tid %d, open span is %q", i, ev.Name, ev.TID, top)
			}
			stacks[ev.TID] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("trace: tid %d ends with %d unclosed span(s), first %q", tid, len(st), st[0])
		}
	}
	return nil
}

// Flush writes the provider's metrics snapshot and trace export to the
// given paths (either may be empty to skip). Nil-safe: a nil provider
// writes nothing, so CLI epilogues call it unconditionally.
func (p *Provider) Flush(metricsPath, tracePath string) error {
	if p == nil {
		return nil
	}
	if metricsPath != "" {
		if err := WriteMetricsFile(metricsPath, p.Snapshot()); err != nil {
			return fmt.Errorf("obs: write metrics: %w", err)
		}
	}
	if tracePath != "" && p.Tracer != nil {
		if err := WriteTraceFile(tracePath, p.Tracer); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
	}
	return nil
}

// NewCLI builds the provider a command's flags ask for: nil when
// neither -metrics, -trace nor another registry consumer (extra, e.g.
// atomig-mc -stats) is active, metrics-only when -trace is off, and
// tracing when a trace path is given.
func NewCLI(metricsPath, tracePath string, extra bool) *Provider {
	if metricsPath == "" && tracePath == "" && !extra {
		return nil
	}
	if tracePath != "" {
		return NewTracing()
	}
	return New()
}
