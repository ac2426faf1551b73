package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestSpanTreeWellFormed builds a nested span tree across several
// tracks (including concurrent tracks, as the parallel model checker
// produces) and checks the export validates: matched B/E pairs in LIFO
// order per track, timestamps sorted.
func TestSpanTreeWellFormed(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := tr.Track([]string{"mc.worker-00", "mc.worker-01", "mc.worker-02", "mc.worker-03"}[w])
			worker := tk.Begin("mc.worker")
			for f := 0; f < 3; f++ {
				frag := tk.Begin("mc.fragment").Arg("index", f)
				tk.Instant("mc.fragment_donated")
				inner := tk.Begin("mc.backtrack")
				inner.End()
				frag.End()
			}
			worker.End()
		}(w)
	}
	wg.Wait()
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := ValidateTrace(data); err != nil {
		t.Fatalf("exported span tree is not well formed: %v\n%s", err, data)
	}

	evs := tr.Events()
	// One thread_name metadata event per track, leading the stream.
	meta := 0
	for _, ev := range evs {
		if ev.Ph == "M" {
			meta++
		}
	}
	if meta != 4 {
		t.Errorf("%d metadata events, want 4", meta)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Ph == "M" && evs[i-1].Ph != "M" {
			t.Errorf("metadata event %d not at the head of the stream", i)
		}
		if evs[i].Ph != "M" && evs[i-1].Ph != "M" && evs[i].TS < evs[i-1].TS {
			t.Errorf("event %d out of order", i)
		}
	}
}

// TestValidateTraceRejections: the validator catches the failure modes
// it exists for.
func TestValidateTraceRejections(t *testing.T) {
	cases := []struct {
		name, events, want string
	}{
		{"unmatched E", `[{"name":"x","ph":"E","ts":1,"pid":0,"tid":0}]`, "no open span"},
		{"crossed pairs", `[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0},{"name":"b","ph":"B","ts":2,"pid":0,"tid":0},{"name":"a","ph":"E","ts":3,"pid":0,"tid":0},{"name":"b","ph":"E","ts":4,"pid":0,"tid":0}]`, "open span is"},
		{"dangling B", `[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]`, "unclosed"},
		{"unsorted", `[{"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},{"name":"b","ph":"i","ts":1,"pid":0,"tid":0,"s":"t"}]`, "out of order"},
		{"bad phase", `[{"name":"a","ph":"Q","ts":1,"pid":0,"tid":0}]`, "unknown phase"},
		{"nameless", `[{"name":"","ph":"B","ts":1,"pid":0,"tid":0}]`, "no name"},
	}
	for _, tc := range cases {
		data := `{"traceEvents":` + tc.events + `,"displayTimeUnit":"ms"}`
		err := ValidateTrace([]byte(data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := ValidateTrace([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}`)); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

// TestValidateMetricsRejections mirrors the metrics-side validator.
func TestValidateMetricsRejections(t *testing.T) {
	good := New()
	good.Counter("mc.executions_pruned").Add(3)
	good.Histogram("mc.fragment_executions").Observe(5)
	data, err := EncodeMetrics(good.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(data); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []struct {
		name, body, want string
	}{
		{"wrong schema", `{"schema":"atomig.metrics/v0","counters":{},"gauges":{},"histograms":{}}`, "schema"},
		{"bad name", `{"schema":"atomig.metrics/v2","counters":{"NotValid":1},"gauges":{},"histograms":{}}`, "naming convention"},
		{"bucket mismatch", `{"schema":"atomig.metrics/v2","counters":{},"gauges":{},"histograms":{"mc.fragment_executions":{"count":2,"sum":5,"buckets":[{"le":7,"n":1}]}}}`, "sum to"},
		{"unsorted buckets", `{"schema":"atomig.metrics/v2","counters":{},"gauges":{},"histograms":{"mc.fragment_executions":{"count":2,"sum":5,"buckets":[{"le":7,"n":1},{"le":3,"n":1}]}}}`, "not sorted"},
		{"unknown field", `{"schema":"atomig.metrics/v2","counters":{},"gauges":{},"histograms":{},"extra":1}`, "unknown field"},
		{"not json", `weights=heavy`, "not a snapshot"},
	}
	for _, tc := range cases {
		err := ValidateMetrics([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceArgsSurvive: span args land on the closing event as JSON.
func TestTraceArgsSurvive(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("pipeline")
	tk.Begin("pipeline.port").Arg("spinloops", 2).Arg("module", "seqlock").End()
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"spinloops": 2`) || !strings.Contains(string(data), `"seqlock"`) {
		t.Errorf("args missing from export:\n%s", data)
	}
}
