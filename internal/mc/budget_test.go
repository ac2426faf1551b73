package mc

import (
	"context"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/memmodel"
)

// explosiveSrc is a deliberately state-explosive program: three threads
// hammer disjoint counters and cross-read each other, so the
// interleaving tree is far larger than any small execution budget.
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

// TestBudgetExhaustionIsUnknown: cutting exploration short must degrade
// to VerdictUnknown with nonzero exploration statistics and a resume
// token — never a false VerdictPass.
func TestBudgetExhaustionIsUnknown(t *testing.T) {
	m := compile(t, explosiveSrc)
	res, err := Check(m, Options{
		Model:         memmodel.ModelWMM,
		Entries:       []string{"t0", "t1", "t2"},
		MaxExecutions: 200,
		TimeBudget:    time.Minute,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %s, want unknown (execs=%d frontier=%d)",
			res.Verdict, res.Executions, res.Frontier)
	}
	if res.Executions != 200 {
		t.Errorf("executions = %d, want 200", res.Executions)
	}
	if res.Frontier == 0 {
		t.Errorf("frontier = 0, want unexplored branches")
	}
	if res.States == 0 {
		t.Errorf("states = 0, want a populated visited cache")
	}
	if res.Reason != "execution budget exhausted" {
		t.Errorf("reason = %q", res.Reason)
	}
	if len(res.Resume) != 1 {
		t.Fatalf("%d resume tokens on a one-worker budget-exhausted Unknown, want 1", len(res.Resume))
	}
	if tok := res.Resume[0]; tok.Executions() != 200 || tok.Frontier() == 0 {
		t.Errorf("token stats: execs=%d frontier=%d", tok.Executions(), tok.Frontier())
	}
}

// TestTimeBudgetIsUnknown covers the wall-clock budget path.
func TestTimeBudgetIsUnknown(t *testing.T) {
	m := compile(t, explosiveSrc)
	res, err := Check(m, Options{
		Model:      memmodel.ModelWMM,
		Entries:    []string{"t0", "t1", "t2"},
		TimeBudget: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %s, want unknown", res.Verdict)
	}
	if res.Reason != "time budget exhausted" {
		t.Errorf("reason = %q", res.Reason)
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Errorf("elapsed = %s below budget", res.Elapsed)
	}
}

// TestContextCancellation: a canceled context degrades to Unknown with
// the work so far, instead of being lost — and the worker pool drains
// completely on the cancel path (no leaked goroutines), at every
// fan-out.
func TestContextCancellation(t *testing.T) {
	leakcheck.Check(t)
	m := compile(t, explosiveSrc)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Check(m, Options{
			Model:      memmodel.ModelWMM,
			Entries:    []string{"t0", "t1", "t2"},
			TimeBudget: time.Minute,
			Context:    ctx,
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("Check (workers=%d): %v", workers, err)
		}
		if res.Verdict != VerdictUnknown || res.Reason != "canceled" {
			t.Fatalf("workers=%d: verdict = %s reason = %q, want unknown/canceled",
				workers, res.Verdict, res.Reason)
		}
	}
}

// TestResumeDeterministic: an exploration chopped into execution-budget
// slices and resumed must visit exactly the executions the
// uninterrupted run visits, in the same order, and end with the same
// verdict, execution count and violations. Covered on both a racy
// program (mpSrc, ends Violated) and a properly synchronized one
// (ends Verified).
func TestResumeDeterministic(t *testing.T) {
	const safeSrc = `
_Atomic int flag;
int msg;
void writer(void) { msg = 1; flag = 1; }
void reader(void) {
  while (flag == 0) { }
  assert(msg == 1);
}
`
	run := func(src string, entries []string, slice int) (*Result, int) {
		m := compile(t, src)
		var token []*ResumeToken
		rounds := 0
		for {
			rounds++
			opts := Options{
				Model:      memmodel.ModelWMM,
				Entries:    entries,
				TimeBudget: time.Minute,
				Resume:     token,
			}
			if slice > 0 {
				// Each slice extends the execution budget by `slice`.
				prev := 0
				if token != nil {
					prev = token[0].Executions()
				}
				opts.MaxExecutions = prev + slice
			}
			res, err := Check(m, opts)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if res.Resume == nil {
				return res, rounds
			}
			token = res.Resume
			if rounds > 10_000 {
				t.Fatalf("resume loop did not converge")
			}
		}
	}

	entries := []string{"reader", "writer"}
	for _, src := range []string{mpSrc, safeSrc} {
		full, _ := run(src, entries, 0) // uninterrupted reference
		for _, slice := range []int{1, 7, 64} {
			chopped, rounds := run(src, entries, slice)
			if chopped.Verdict != full.Verdict {
				t.Errorf("slice %d: verdict %s != %s", slice, chopped.Verdict, full.Verdict)
			}
			if chopped.Executions != full.Executions {
				t.Errorf("slice %d: executions %d != %d (after %d rounds)",
					slice, chopped.Executions, full.Executions, rounds)
			}
			if len(chopped.Violations) != len(full.Violations) {
				t.Errorf("slice %d: violations %d != %d", slice, len(chopped.Violations), len(full.Violations))
			}
		}
	}
}

// TestResumeTokenRoundTrip: Encode/Decode preserves the frontier, and a
// decoded (cross-process) token still finishes the exploration with the
// right verdict.
func TestResumeTokenRoundTrip(t *testing.T) {
	m := compile(t, mpSrc)
	res, err := Check(m, Options{
		Model:         memmodel.ModelWMM,
		Entries:       []string{"reader", "writer"},
		MaxExecutions: 5,
		TimeBudget:    time.Minute,
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verdict != VerdictUnknown || res.Resume == nil {
		t.Skipf("program fully explored in 5 executions; verdict %s", res.Verdict)
	}
	tok := res.Resume[0]
	decoded, err := DecodeResume(tok.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Executions() != tok.Executions() || decoded.Frontier() != tok.Frontier() {
		t.Fatalf("round trip lost stats: %d/%d vs %d/%d",
			decoded.Executions(), decoded.Frontier(),
			tok.Executions(), tok.Frontier())
	}
	cont, err := Check(m, Options{
		Model:      memmodel.ModelWMM,
		Entries:    []string{"reader", "writer"},
		TimeBudget: time.Minute,
		Resume:     []*ResumeToken{decoded},
	})
	if err != nil {
		t.Fatalf("resumed Check: %v", err)
	}
	// mpSrc is racy under WMM: the continued exploration must find it.
	if cont.Verdict != VerdictFail {
		t.Fatalf("resumed verdict = %s, want violated", cont.Verdict)
	}

	if _, err := DecodeResume("not-a-token"); err == nil {
		t.Error("DecodeResume accepted garbage")
	}
	if _, err := DecodeResume(""); err == nil {
		t.Error("DecodeResume accepted empty input")
	}
}
