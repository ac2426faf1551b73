package main

import (
	"testing"

	"repro/internal/obs"
)

func TestAnalyzeTraceSelfTimes(t *testing.T) {
	ev := func(name, ph string, ts float64, tid int, args map[string]any) obs.TraceEvent {
		return obs.TraceEvent{Name: name, Ph: ph, TS: ts, TID: tid, Args: args}
	}
	edit := map[string]any{"op": "edit"}
	port := map[string]any{"op": "port"}
	spans := analyzeTrace([]obs.TraceEvent{
		// A port request whose pipeline.port child runs on another track.
		ev("serve.request", "B", 0, 1, port),
		ev("pipeline.port", "B", 1000, 2, nil),
		ev("pipeline.analysis", "B", 1000, 2, nil),
		ev("pipeline.analysis", "E", 3000, 2, nil),
		ev("pipeline.alias", "B", 3000, 2, nil),
		ev("pipeline.alias", "E", 4000, 2, nil),
		ev("pipeline.port", "E", 5000, 2, nil),
		ev("serve.request", "E", 6000, 1, port),
		// An edit request with no children.
		ev("serve.request", "B", 7000, 1, edit),
		ev("serve.request", "E", 9500, 1, edit),
	})
	for _, c := range []struct {
		name string
		want float64
	}{{"pipeline.port", 1}, {"pipeline.analysis", 2}, {"pipeline.alias", 1}} {
		if got := spans.selfMS(c.name); got != c.want {
			t.Errorf("selfMS(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if got := spans.requestSelfMS("port", "pipeline.port"); got != 2 {
		t.Errorf("port request self time = %v ms, want 2 (6 ms minus the 4 ms pipeline.port child)", got)
	}
	if got := spans.requestSelfMS("edit"); got != 2.5 {
		t.Errorf("edit request self time = %v ms, want 2.5", got)
	}
}
