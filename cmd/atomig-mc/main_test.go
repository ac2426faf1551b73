package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
)

func runMC(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Malformed inputs must produce a structured error on stderr and exit
// code 2 — never a panic.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"unknown corpus", []string{"-corpus", "nope"}},
		{"unknown model", []string{"-corpus", "mp", "-model", "psc"}},
		{"missing file", []string{"-entries", "a", "/nonexistent/x.c"}},
		{"malformed minic", []string{"-entries", "a", writeFile(t, "bad.c", "void f( {")}},
		{"malformed air", []string{"-entries", "a", writeFile(t, "bad.air", "define [")}},
		{"bad resume token", []string{"-corpus", "mp", "-resume", "not-a-token"}},
	}
	for _, tc := range cases {
		code, _, stderr := runMC(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if tc.args != nil && !strings.Contains(stderr, "atomig-mc:") && !strings.Contains(stderr, "flag") {
			t.Errorf("%s: stderr lacks a structured error: %q", tc.name, stderr)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr looks like a panic:\n%s", tc.name, stderr)
		}
	}
}

const racySrc = `
int flag;
int msg;
void writer(void) { msg = 1; flag = 1; }
void reader(void) {
  while (flag == 0) { }
  assert(msg == 1);
}
`

// TestStressUnderSC: -model sc sweeps under SC. mp's assertion cannot
// fail there (under WMM the same sweep exits 1), but its plain flag
// accesses still race in the C11 sense, so the sweep exits 4.
func TestStressUnderSC(t *testing.T) {
	code, stdout, stderr := runMC(t, "-stress", "-seeds", "4", "-model", "sc", "-corpus", "mp")
	if code != 4 || !strings.HasPrefix(stdout, "model=sc stress schedules=20 ") || strings.Contains(stdout, "violation") {
		t.Fatalf("exit %d, want 4 (racy, no violation)\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// Violation found => exit 1; ported and verified => exit 0.
func TestVerdictExitCodes(t *testing.T) {
	path := writeFile(t, "mp.c", racySrc)
	code, stdout, _ := runMC(t, "-model", "wmm", "-entries", "reader,writer", path)
	if code != 1 {
		t.Fatalf("racy program: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "verdict=violated") {
		t.Errorf("stdout lacks verdict=violated:\n%s", stdout)
	}
	code, stdout, _ = runMC(t, "-model", "wmm", "-port", "-entries", "reader,writer", path)
	if code != 0 {
		t.Fatalf("ported program: exit %d, want 0\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "verdict=verified") {
		t.Errorf("stdout lacks verdict=verified:\n%s", stdout)
	}
}

const explosiveSrc = `
int a;
int b;
int c;
int out;
void t0(void) {
  for (int i = 0; i < 6; i = i + 1) { a = a + 1; out = out + b; }
}
void t1(void) {
  for (int i = 0; i < 6; i = i + 1) { b = b + 1; out = out + c; }
}
void t2(void) {
  for (int i = 0; i < 6; i = i + 1) { c = c + 1; out = out + a; }
}
`

// Budget exhaustion => exit 3, unknown verdict, stats and a resume
// token; feeding the token back continues the exploration.
func TestBudgetExhaustedExitCode(t *testing.T) {
	path := writeFile(t, "explosive.c", explosiveSrc)
	code, stdout, stderr := runMC(t,
		"-model", "wmm", "-entries", "t0,t1,t2", "-max-execs", "50", path)
	if code != 3 {
		t.Fatalf("exit %d, want 3\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"verdict=unknown", "executions=50", "frontier=", "reason: execution budget exhausted"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	m := regexp.MustCompile(`(?m)^resume=(\S+)$`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no resume token printed:\n%s", stdout)
	}
	code, stdout, stderr = runMC(t,
		"-model", "wmm", "-entries", "t0,t1,t2", "-max-execs", "150", "-resume", m[1], path)
	if code != 3 {
		t.Fatalf("resumed run: exit %d, want 3 (still unknown)\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "executions=150") {
		t.Errorf("resumed run did not continue the counters:\n%s", stdout)
	}
}

// Race mode: the legacy migration-gap program gets the racy verdict and
// exit 4 with the struct field named; the ported version verifies race-
// free with exit 0; -stats prints the human-readable summary.
func TestRaceVerdictExitCode(t *testing.T) {
	code, stdout, _ := runMC(t, "-corpus", "seqlock-gap", "-model", "wmm", "-race", "-stats")
	if code != 4 {
		t.Fatalf("racy program: exit %d, want 4\n%s", code, stdout)
	}
	for _, want := range []string{"verdict=racy", "data race on %gen:0", "distinct states:", "explored"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	code, stdout, _ = runMC(t, "-corpus", "seqlock-gap", "-model", "wmm", "-race", "-port")
	if code != 0 {
		t.Fatalf("ported program: exit %d, want 0\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "races: none") {
		t.Errorf("stdout lacks races: none:\n%s", stdout)
	}
}

// End-to-end observability: a ported -j 8 run on seqlock-gap exits 0
// and exports a valid metrics snapshot carrying both the pipeline
// tallies and the checker counters, plus a Chrome trace with at least
// eight distinct worker timelines carrying fragment spans.
func TestObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.json")
	code, stdout, stderr := runMC(t,
		"-corpus", "seqlock-gap", "-model", "wmm", "-port", "-j", "8",
		"-metrics", metricsPath, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(mdata); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pipeline.ports_completed",
		"pipeline.spinloops_found",
		"pipeline.buddies_explored",
		"pipeline.accesses_transformed",
		"mc.executions_explored",
		"mc.states_recorded",
		"mc.fragments_claimed",
		"mc.vms_allocated",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("metrics counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	// seqlock-gap has no optimistic loops, so this tally is legitimately
	// zero — but the pipeline must still register it.
	if _, ok := snap.Counters["pipeline.opt_controls_marked"]; !ok {
		t.Error("metrics snapshot lacks pipeline.opt_controls_marked")
	}

	tdata, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(tdata); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(tdata, &tf); err != nil {
		t.Fatal(err)
	}
	workerTracks := make(map[string]bool)
	spans := make(map[string]int)
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "mc.worker-") {
				workerTracks[name] = true
			}
		}
		if ev.Ph == "B" {
			spans[ev.Name]++
		}
	}
	if len(workerTracks) < 8 {
		t.Errorf("trace has %d worker timelines, want >= 8: %v", len(workerTracks), workerTracks)
	}
	for _, name := range []string{"mc.worker", "mc.fragment", "pipeline.port"} {
		if spans[name] == 0 {
			t.Errorf("trace has no %s spans (got %v)", name, spans)
		}
	}
}

// -stats keeps its exact text format: downstream scripts scrape it, so
// the registry migration must not move a byte.
func TestStatsFormat(t *testing.T) {
	snap := obs.Snapshot{Counters: map[string]int64{
		"mc.executions_explored":   150,
		"mc.states_recorded":       42,
		"mc.executions_pruned":     7,
		"mc.executions_truncated":  3,
		"mc.vms_reset":             120,
		"mc.vms_allocated":         30,
		"mc.shard_locks_contended": 5,
	}}
	res := &mc.Result{Elapsed: 1234 * time.Millisecond, Workers: 4}
	var b bytes.Buffer
	printStats(&b, res, snap)
	want := `explored 150 executions in 1.234s with 4 worker(s)
  distinct states:    42
  pruned re-converging executions: 7
  step-truncated executions:       3
  VM reuse: 120 resets / 30 fresh allocations
  contended visited-shard locks:   5
  state space fully explored
`
	if b.String() != want {
		t.Errorf("stats format drifted:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	res.Frontier = 9
	b.Reset()
	printStats(&b, res, snap)
	if !strings.Contains(b.String(), "  unexplored frontier branches:    9\n") {
		t.Errorf("frontier line drifted:\n%s", b.String())
	}

	// With histograms in the snapshot, the quantile section appears,
	// sorted by name, rendering the v2 p50/p95/p99 fields.
	snap.Histograms = map[string]obs.HistogramSnapshot{
		"mc.fragment_executions": {Count: 100, Sum: 500, P50: 3, P95: 15, P99: 127},
		"mc.execution_steps":     {Count: 7, Sum: 70, P50: 7, P95: 15, P99: 15},
	}
	b.Reset()
	printStats(&b, res, snap)
	wantQ := `  distribution quantiles (approximate, bucket upper bounds):
    mc.execution_steps               p50=7 p95=15 p99=15 (n=7)
    mc.fragment_executions           p50=3 p95=15 p99=127 (n=100)
`
	if !strings.Contains(b.String(), wantQ) {
		t.Errorf("quantile section drifted:\ngot:\n%s\nwant substring:\n%s", b.String(), wantQ)
	}
}

// A violation outranks a race on both verdict and exit code.
func TestRaceLosesToViolation(t *testing.T) {
	path := writeFile(t, "mp.c", racySrc)
	code, stdout, _ := runMC(t, "-model", "wmm", "-entries", "reader,writer", "-race", path)
	if code != 1 {
		t.Fatalf("violating racy program: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "verdict=violated") || !strings.Contains(stdout, "data race on") {
		t.Errorf("expected violated verdict plus race reports:\n%s", stdout)
	}
}
