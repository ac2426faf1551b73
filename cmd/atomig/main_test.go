package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runCLIStdin(t, "", args...)
}

func runCLIStdin(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
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
		{"unknown level", []string{"-level", "max", "-corpus", "mp"}},
		{"missing file", []string{"/nonexistent/x.c"}},
		{"malformed minic", []string{writeFile(t, "bad.c", "int x = = 3;")}},
		{"malformed air", []string{writeFile(t, "bad.air", "define i64@(")}},
		{"unknown oracle", []string{"-O", "-O-oracle", "screened", "-corpus", "mp"}},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr looks like a panic:\n%s", tc.name, stderr)
		}
	}
}

// Porting a corpus program succeeds with a report; -list exits 0.
func TestPortAndList(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-corpus", "mp")
	if code != 0 {
		t.Fatalf("port: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "atomig report") {
		t.Errorf("no report printed:\n%s", stdout)
	}
	code, stdout, _ = runCLI(t, "-list")
	if code != 0 || !strings.Contains(stdout, "mp") {
		t.Errorf("-list: exit %d, output:\n%s", code, stdout)
	}
}

// -o writes a transformed module that re-parses through the .air path.
func TestEmitFileRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mp.air")
	code, _, stderr := runCLI(t, "-corpus", "mp", "-o", out)
	if code != 0 {
		t.Fatalf("port -o: exit %d\nstderr: %s", code, stderr)
	}
	code, stdout, stderr := runCLI(t, out)
	if code != 0 {
		t.Fatalf("re-port .air: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "atomig report") {
		t.Errorf("no report on .air input:\n%s", stdout)
	}
}

// -explain-races maps detector findings back to promotion advice: the
// migration-gap corpus program yields the %gen:0 gap with the writer's
// stores listed; a file input works through -entries; missing entries
// is a usage error.
func TestExplainRaces(t *testing.T) {
	code, stdout, _ := runCLI(t, "-explain-races", "-corpus", "seqlock-gap")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, stdout)
	}
	for _, want := range []string{"%gen:0", "migration gap", "promote: @writer"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	path := writeFile(t, "mp.c", `
int flag;
int msg;
void writer(void) { msg = 1; flag = 1; }
void reader(void) { while (flag == 0) { } int m = msg; msg = m; }
`)
	code, stdout, _ = runCLI(t, "-explain-races", "-entries", "reader,writer", path)
	if code != 0 {
		t.Fatalf("file input: exit %d, want 0\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "@flag") {
		t.Errorf("file input lacks @flag locale:\n%s", stdout)
	}

	code, _, stderr := runCLI(t, "-explain-races", path)
	if code != 2 || !strings.Contains(stderr, "entries") {
		t.Errorf("missing entries: exit %d stderr %q, want usage error", code, stderr)
	}
}

// -serve startup failures must exit 2 with a structured error before
// any request is served — the same contract as malformed port inputs.
func TestServeStartupFailures(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional arg", []string{"-serve", "leftover.c"}, "no positional arguments"},
		{"zero queue", []string{"-serve", "-queue", "0"}, "-queue must be positive"},
		{"negative deadline", []string{"-serve", "-deadline", "-1s"}, "must be positive"},
		{"zero grace", []string{"-serve", "-grace", "0s"}, "must be positive"},
		{"unbindable socket", []string{"-serve", "-socket", filepath.Join(t.TempDir(), "no", "such", "dir.sock")}, "serve"},
	}
	for _, tc := range cases {
		code, _, stderr := runCLIStdin(t, "", tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr, tc.want)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: stderr looks like a panic:\n%s", tc.name, stderr)
		}
	}
}

// A -serve session driven to a clean drain — by the shutdown op or by
// stdin EOF — exits 0 with well-formed protocol output. Requests on
// one connection execute concurrently, so this script only pipelines
// load before shutdown (which drains in-flight work before replying);
// order-dependent sequences like load-then-port must wait for each
// response (docs/SERVE.md), which scripts/serve-smoke.sh exercises.
func TestServeCleanDrain(t *testing.T) {
	stdin := `{"id":"a","op":"load","name":"t.c","source":"int x; void f(void) { x = 1; }"}` + "\n" +
		`{"id":"c","op":"shutdown"}` + "\n"
	code, stdout, stderr := runCLIStdin(t, stdin, "-serve")
	if code != 0 {
		t.Fatalf("shutdown drain: exit %d, want 0\nstderr: %s", code, stderr)
	}
	for _, id := range []string{`"id":"a"`, `"id":"c"`} {
		if !strings.Contains(stdout, id) {
			t.Errorf("stdout lacks a response for %s:\n%s", id, stdout)
		}
	}
	if strings.Contains(stdout, `"ok":false`) {
		t.Errorf("unexpected error response:\n%s", stdout)
	}

	code, _, stderr = runCLIStdin(t, `{"id":"only","op":"stats"}`+"\n", "-serve")
	if code != 0 {
		t.Errorf("EOF drain: exit %d, want 0\nstderr: %s", code, stderr)
	}
}
