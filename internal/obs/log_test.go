package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// testLogger returns a logger writing to buf with a deterministic
// microsecond clock (one tick per event).
func testLogger(buf *bytes.Buffer) *Logger {
	lg := NewLogger(buf)
	var t int64
	lg.nowUS = func() int64 { t += 1000; return t }
	return lg
}

// TestLoggerJSONLines pins the event-log line format: one JSON object
// per line with ts_us, seq, ev, then the caller's fields in call order.
func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lg := testLogger(&buf)
	lg.Event("serve.request_admitted").Str("rid", "r000001").Int("slot", 3).Bool("replay", false).Emit()
	lg.Event("serve.request_done").Str("rid", "r000001").Emit()

	want := `{"ts_us":1000,"seq":1,"ev":"serve.request_admitted","rid":"r000001","slot":3,"replay":false}
{"ts_us":2000,"seq":2,"ev":"serve.request_done","rid":"r000001"}
`
	if got := buf.String(); got != want {
		t.Errorf("log output:\n%s\nwant:\n%s", got, want)
	}
	// Every line must independently parse as JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %q is not valid JSON: %v", line, err)
		}
	}
}

// TestLoggerEscaping: field values with quotes, control characters and
// invalid UTF-8 must still produce valid JSON.
func TestLoggerEscaping(t *testing.T) {
	var buf bytes.Buffer
	lg := testLogger(&buf)
	lg.Event("serve.request_done").
		Str("quote", `say "hi"`).
		Str("ctl", "a\nb\tc\x01d").
		Str("bad", "x\xffy").
		Str("uni", "héllo⇒").
		Emit()
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		t.Fatalf("escaped line is not valid JSON: %v\n%s", err, buf.String())
	}
	if m["quote"] != `say "hi"` || m["ctl"] != "a\nb\tc\x01d" || m["uni"] != "héllo⇒" {
		t.Errorf("fields did not round-trip: %v", m)
	}
	if !strings.Contains(m["bad"].(string), "�") {
		t.Errorf("invalid UTF-8 not replaced: %q", m["bad"])
	}
}

// TestLoggerConcurrent hammers one logger from many goroutines; every
// line must stay intact (no interleaved writes) and seq must be unique.
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&safeWriter{w: &buf})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lg.Event("serve.request_done").Int("g", int64(g)).Int("i", int64(i)).Emit()
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1600 {
		t.Fatalf("got %d lines, want 1600", len(lines))
	}
	seqs := make(map[int64]bool)
	for _, line := range lines {
		var ev struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt line %q: %v", line, err)
		}
		if seqs[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seqs[ev.Seq] = true
	}
}

// safeWriter makes a bytes.Buffer safe for the concurrent test (the
// logger serializes writes itself; this guards the test's own reads).
type safeWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestRecorderDump: events flow logger → recorder; the dump is a valid
// flight-recorder document in timeline order carrying the tags.
func TestRecorderDump(t *testing.T) {
	lg := testLogger(&bytes.Buffer{})
	rec := NewRecorder(64)
	lg.SetRecorder(rec)
	for i := 0; i < 20; i++ {
		lg.Event("serve.request_admitted").Int("i", int64(i)).Emit()
	}
	dump := rec.Dump("watchdog", map[string]string{"rid": "r000007", "op": "port"})
	if err := ValidateFlight(dump); err != nil {
		t.Fatalf("dump invalid: %v\n%s", err, dump)
	}
	var d flightDump
	if err := json.Unmarshal(dump, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "watchdog" || d.Tags["rid"] != "r000007" || d.Tags["op"] != "port" {
		t.Errorf("envelope = %q/%v", d.Reason, d.Tags)
	}
	if len(d.Events) != 20 {
		t.Fatalf("dump has %d events, want 20", len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.Ev != "serve.request_admitted" {
			t.Errorf("event %d: ev %q", i, ev.Ev)
		}
		if i > 0 && ev.TSUS < d.Events[i-1].TSUS {
			t.Errorf("event %d out of order", i)
		}
	}
}

// TestRecorderBounded: the ring retains only the newest ~capacity
// events, and dumps stay bounded no matter how many were emitted.
func TestRecorderBounded(t *testing.T) {
	lg := testLogger(&bytes.Buffer{})
	rec := NewRecorder(64)
	lg.SetRecorder(rec)
	for i := 0; i < 10_000; i++ {
		lg.Event("serve.request_done").Int("i", int64(i)).Emit()
	}
	dump := rec.Dump("overload", nil)
	if err := ValidateFlight(dump); err != nil {
		t.Fatalf("dump invalid: %v", err)
	}
	var d flightDump
	if err := json.Unmarshal(dump, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Events) > 64+recorderStripes {
		t.Errorf("ring retained %d events, capacity 64", len(d.Events))
	}
	// Only the newest survive: the oldest retained index must be late.
	var first struct {
		I int64 `json:"i"`
	}
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"i":%d}`, 0)), &first); err != nil {
		t.Fatal(err)
	}
	if d.Events[0].TSUS < 9000*1000 {
		t.Errorf("oldest retained event ts %d — ring did not evict", d.Events[0].TSUS)
	}
	if len(dump) > MaxRecordBytes*(64+recorderStripes) {
		t.Errorf("dump is %d bytes — unbounded", len(dump))
	}
}

// TestRecorderTruncatesOversize: a pathological event line becomes a
// stub naming its size instead of blowing the memory bound.
func TestRecorderTruncatesOversize(t *testing.T) {
	lg := testLogger(&bytes.Buffer{})
	rec := NewRecorder(8)
	lg.SetRecorder(rec)
	lg.Event("serve.request_admitted").Str("huge", strings.Repeat("x", 2*MaxRecordBytes)).Emit()
	dump := rec.Dump("panic", nil)
	if err := ValidateFlight(dump); err != nil {
		t.Fatalf("dump invalid: %v", err)
	}
	var d flightDump
	if err := json.Unmarshal(dump, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].Ev != "obs.record_truncated" {
		t.Fatalf("oversize event not stubbed: %+v", d.Events)
	}
}

// TestValidateFlightRejects pins the failure modes.
func TestValidateFlightRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `nope`,
		"wrong schema":  `{"schema":"other/v1","reason":"x","events":[]}`,
		"no reason":     `{"schema":"atomig.flightrec/v1","events":[]}`,
		"unnamed event": `{"schema":"atomig.flightrec/v1","reason":"x","events":[{"ts_us":1,"seq":1}]}`,
		"out of order":  `{"schema":"atomig.flightrec/v1","reason":"x","events":[{"ts_us":2,"seq":1,"ev":"a.b"},{"ts_us":1,"seq":2,"ev":"a.b"}]}`,
	}
	for name, data := range cases {
		if err := ValidateFlight([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTracerMirror: completed spans echo into the logger (and through
// it the flight recorder) as obs.span_completed events.
func TestTracerMirror(t *testing.T) {
	var buf bytes.Buffer
	lg := testLogger(&buf)
	var clk int64
	tr := newTracerAt(func() int64 { clk += 2500; return clk })
	tr.MirrorTo(lg)
	sp := tr.Track("serve").Begin("serve.op_port")
	sp.End()
	var ev struct {
		Ev    string `json:"ev"`
		Track string `json:"track"`
		Span  string `json:"span"`
		DurUS int64  `json:"dur_us"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &ev); err != nil {
		t.Fatalf("mirror emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if ev.Ev != "obs.span_completed" || ev.Track != "serve" || ev.Span != "serve.op_port" {
		t.Errorf("mirror event = %+v", ev)
	}
	if ev.DurUS != 2 { // 2500ns between Begin and End → 2µs
		t.Errorf("dur_us = %d, want 2", ev.DurUS)
	}
	tr.MirrorTo(nil)
	buf.Reset()
	tr.Track("serve").Begin("serve.op_port").End()
	if buf.Len() != 0 {
		t.Error("detached mirror still emitted")
	}
}

// TestHistogramQuantiles pins the bucket-upper-bound quantile math.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.latency_observed")
	// 100 observations: 50× value 3 (bucket le=3), 45× value 10
	// (le=15), 5× value 100 (le=127).
	for i := 0; i < 50; i++ {
		h.Observe(3)
	}
	for i := 0; i < 45; i++ {
		h.Observe(10)
	}
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	hs := r.Snapshot().Histograms["test.latency_observed"]
	if hs.P50 != 3 || hs.P95 != 15 || hs.P99 != 127 {
		t.Errorf("quantiles p50=%d p95=%d p99=%d, want 3/15/127", hs.P50, hs.P95, hs.P99)
	}
	if got := hs.Quantile(1.0); got != 127 {
		t.Errorf("Quantile(1.0) = %d, want 127", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
}

// TestMetricsV2RoundTrip: a live snapshot encodes under the v2 schema
// with quantiles and validates.
func TestMetricsV2RoundTrip(t *testing.T) {
	p := New()
	p.Counter("test.events_counted").Add(7)
	p.Histogram("test.latency_observed").Observe(42)
	data, err := EncodeMetrics(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(SchemaVersion)) {
		t.Errorf("snapshot does not carry schema %q", SchemaVersion)
	}
	if !bytes.Contains(data, []byte(`"p95"`)) {
		t.Error("v2 snapshot has no quantiles")
	}
	if err := ValidateMetrics(data); err != nil {
		t.Errorf("round-trip invalid: %v", err)
	}
}

// TestMetricsV1Fixture: the v1 schema (histograms without quantiles)
// is retired, so a v1 snapshot is rejected by its schema; the v2
// fixture validates, and out-of-order quantiles are rejected.
func TestMetricsV1Fixture(t *testing.T) {
	v1 := `{"schema":"atomig.metrics/v1","counters":{"mc.executions_explored":1742},"gauges":{},"histograms":{}}`
	if err := ValidateMetrics([]byte(v1)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("v1 snapshot: err = %v, want a schema rejection", err)
	}
	data, err := os.ReadFile("testdata/metrics_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(data); err != nil {
		t.Errorf("v2 fixture rejected: %v", err)
	}
	bad := bytes.Replace(data, []byte(`"p50": 3,`), []byte(`"p50": 9,`), 1)
	if bytes.Equal(bad, data) {
		t.Fatal("fixture has no p50 to disorder")
	}
	if err := ValidateMetrics(bad); err == nil {
		t.Error("out-of-order quantiles accepted")
	}
}

// TestPromRoundTrip: EncodeProm output passes ValidateProm and
// cross-checks against the snapshot it came from.
func TestPromRoundTrip(t *testing.T) {
	p := New()
	p.Counter("serve.requests_total").Add(12)
	p.Gauge("serve.requests_inflight").Set(2)
	h := p.Histogram("serve.request_ms")
	for _, v := range []int64{1, 3, 3, 200} {
		h.Observe(v)
	}
	snap := p.Snapshot()
	prom := EncodeProm(snap)
	if err := ValidateProm(prom); err != nil {
		t.Fatalf("encoded prom invalid: %v\n%s", err, prom)
	}
	if !bytes.Contains(prom, []byte("atomig_serve_requests_total 12")) {
		t.Errorf("counter sample missing:\n%s", prom)
	}
	if !bytes.Contains(prom, []byte(`atomig_serve_request_ms_bucket{le="+Inf"} 4`)) {
		t.Errorf("+Inf bucket missing:\n%s", prom)
	}
	metrics, err := EncodeMetrics(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPromAgainst(prom, metrics); err != nil {
		t.Errorf("self cross-check failed: %v", err)
	}
}

// TestCheckPromAgainst pins the cross-check: a mid-flight scrape may
// trail the final snapshot but never exceed it, and must overlap it.
func TestCheckPromAgainst(t *testing.T) {
	p := New()
	p.Counter("serve.requests_total").Add(5)
	early := EncodeProm(p.Snapshot())
	p.Counter("serve.requests_total").Add(5)
	final, err := EncodeMetrics(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPromAgainst(early, final); err != nil {
		t.Errorf("early scrape rejected: %v", err)
	}
	late := EncodeProm(p.Snapshot())
	p2 := New()
	p2.Counter("serve.requests_total").Add(3)
	smaller, err := EncodeMetrics(p2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPromAgainst(late, smaller); err == nil {
		t.Error("scrape exceeding the snapshot accepted")
	}
	p3 := New()
	p3.Counter("other.things_counted").Add(1)
	disjoint, err := EncodeMetrics(p3.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPromAgainst(late, disjoint); err == nil {
		t.Error("disjoint scrape/snapshot pair accepted")
	}
}

// TestValidatePromRejects pins scrape failure modes.
func TestValidatePromRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no type":        "atomig_x_total 3\n",
		"bad value":      "# TYPE atomig_x counter\natomig_x nope\n",
		"bad type":       "# TYPE atomig_x widget\natomig_x 3\n",
		"le on scalar":   "# TYPE atomig_x counter\natomig_x{le=\"5\"} 3\n",
		"no inf":         "# TYPE atomig_h histogram\natomig_h_bucket{le=\"1\"} 2\natomig_h_sum 2\natomig_h_count 2\n",
		"not cumulative": "# TYPE atomig_h histogram\natomig_h_bucket{le=\"1\"} 5\natomig_h_bucket{le=\"3\"} 2\natomig_h_bucket{le=\"+Inf\"} 5\natomig_h_sum 2\natomig_h_count 5\n",
		"count mismatch": "# TYPE atomig_h histogram\natomig_h_bucket{le=\"1\"} 2\natomig_h_bucket{le=\"+Inf\"} 2\natomig_h_sum 2\natomig_h_count 3\n",
	}
	for name, data := range cases {
		if err := ValidateProm([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
