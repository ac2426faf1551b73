package fanout

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/leakcheck"
)

// outcome is how one Each (or reference loop) run ended.
type outcome struct {
	err      error
	panicked any // the panic value, when the run panicked
}

// sequential is the loop Each must agree with.
func sequential(n int, fail map[int]bool, panics bool) (out outcome) {
	defer func() { out.panicked = recover() }()
	for i := 0; i < n; i++ {
		if fail[i] {
			if panics {
				panic(failValue(i))
			}
			out.err = failErr(i)
			return out
		}
	}
	return out
}

// errs holds one distinct error per index, so an error compares equal
// only to the one its own index returned.
var errs [200]error

func init() {
	for i := range errs {
		errs[i] = fmt.Errorf("index %d failed", i)
	}
}

func failErr(i int) error    { return errs[i] }
func failValue(i int) string { return fmt.Sprintf("injected failure at %d", i) }

// lowest is the lowest index of a failure set, or -1 for none.
func lowest(fail map[int]bool) int {
	lo := -1
	for i := range fail {
		if lo < 0 || i < lo {
			lo = i
		}
	}
	return lo
}

// failureSets are the none / one / several / all failure index sets for
// a loop of n indices.
func failureSets(n int) map[string]map[int]bool {
	sets := map[string]map[int]bool{"none": {}}
	if n == 0 {
		return sets
	}
	sets["one"] = map[int]bool{n / 2: true}
	sets["several"] = map[int]bool{n / 3: true, n / 2: true, n - 1: true}
	all := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		all[i] = true
	}
	sets["all"] = all
	return sets
}

// TestEachMatchesSequentialLoop is the differential test of Each
// against the sequential loop it replaces: for every index count,
// worker count and failure set, with errors and with panics, Each
// returns the loop's error (or re-raises its panic value), runs every
// index below the lowest failure exactly once, runs no index twice,
// names only workers below min(workers, n), and has no call in flight
// when it returns or panics. The lowest failing index is also the
// slowest, so a higher index fails first in time whenever the fan-out
// is parallel.
func TestEachMatchesSequentialLoop(t *testing.T) {
	leakcheck.Check(t)
	for _, n := range []int{0, 1, 2, 17, 200} {
		for name, fail := range failureSets(n) {
			for _, panics := range []bool{false, true} {
				want := sequential(n, fail, panics)
				lo := lowest(fail)
				for _, workers := range []int{0, 1, 2, 3, 8, 300} {
					label := fmt.Sprintf("n=%d/%s/panics=%t/workers=%d", n, name, panics, workers)
					ran := make([]atomic.Int32, n)
					var inflight, badW atomic.Int32
					limit := max(min(workers, n), 1)
					var got outcome
					func() {
						defer func() { got.panicked = recover() }()
						got.err = Each(workers, n, func(w, i int) error {
							inflight.Add(1)
							defer inflight.Add(-1)
							if w < 0 || w >= limit {
								badW.Store(1)
							}
							ran[i].Add(1)
							if i == lo {
								time.Sleep(2 * time.Millisecond)
							} else {
								time.Sleep(20 * time.Microsecond)
							}
							if fail[i] {
								if panics {
									panic(failValue(i))
								}
								return failErr(i)
							}
							return nil
						})
					}()
					if k := inflight.Load(); k != 0 {
						t.Fatalf("%s: Each came back with %d calls still running", label, k)
					}
					if badW.Load() != 0 {
						t.Errorf("%s: a call named a worker outside [0, %d)", label, limit)
					}
					if got.err != want.err {
						t.Errorf("%s: err %v, want %v", label, got.err, want.err)
					}
					checkPanic(t, label, got.panicked, want.panicked)
					for i := range ran {
						c := ran[i].Load()
						if c > 1 {
							t.Errorf("%s: index %d ran %d times", label, i, c)
						}
						if (lo < 0 || i <= lo) && c != 1 {
							t.Errorf("%s: index %d ran %d times, want once (lowest failure %d)", label, i, c, lo)
						}
					}
				}
			}
		}
	}
}

// checkPanic compares a recovered Each panic against the reference
// loop's panic value: a *diag.InternalError carrying that value, a
// one-line Error() that names it, and a stack in Diagnostics().
func checkPanic(t *testing.T, label string, got, want any) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Errorf("%s: unexpected panic %v", label, got)
		}
		return
	}
	ie, ok := got.(*diag.InternalError)
	if !ok {
		t.Errorf("%s: recovered %T (%v), want *diag.InternalError", label, got, got)
		return
	}
	if ie.Value != want {
		t.Errorf("%s: panic value %v, want %v", label, ie.Value, want)
	}
	if msg := ie.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, fmt.Sprint(want)) {
		t.Errorf("%s: Error() = %q, want one line naming %q", label, msg, want)
	}
	if d := ie.Diagnostics(); !strings.Contains(d, "goroutine ") || !strings.Contains(d, "panic(") {
		t.Errorf("%s: Diagnostics() carries no worker stack:\n%s", label, d)
	}
}

// TestEachStopsClaimingAfterFailure: once a call fails, workers finish
// what they hold and claim nothing more, so most of a long index range
// above an early failure never runs.
func TestEachStopsClaimingAfterFailure(t *testing.T) {
	leakcheck.Check(t)
	const n, failAt = 200, 10
	for _, workers := range []int{2, 3, 8} {
		var ran atomic.Int32
		err := Each(workers, n, func(_, i int) error {
			if i == failAt {
				return failErr(i)
			}
			if i > failAt {
				ran.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
			return nil
		})
		if err != failErr(failAt) {
			t.Fatalf("workers=%d: err %v, want %v", workers, err, failErr(failAt))
		}
		if k := ran.Load(); k >= (n-failAt-1)/2 {
			t.Errorf("workers=%d: %d of the %d indices above the failure ran; claiming did not stop", workers, k, n-failAt-1)
		}
	}
}

// guarded runs Each under a diag guard, the way every entry point of
// the stack calls it.
func guarded(workers, n int, fn func(w, i int) error) (err error) {
	defer diag.Guard("stage.Entry", &err)
	return Each(workers, n, fn)
}

// TestEachPanicContained: a panic in one index becomes the guarded
// entry point's error — lowest index wins over a later error, every
// worker drains, and the error is one line, the same at every worker
// count, with the panic value and stack in the diagnostics.
func TestEachPanicContained(t *testing.T) {
	leakcheck.Check(t)
	var first string
	for _, workers := range []int{1, 4} {
		err := guarded(workers, 32, func(_, i int) error {
			if i == 5 {
				panic("injected cell failure")
			}
			if i == 20 {
				return errors.New("late error")
			}
			return nil
		})
		ie, ok := diag.AsInternal(err)
		if !ok {
			t.Fatalf("workers=%d: want diag.InternalError, got %T: %v", workers, err, err)
		}
		if !strings.Contains(ie.Diagnostics(), "injected cell failure") {
			t.Errorf("workers=%d: diagnostics lost the panic value: %s", workers, ie.Error())
		}
		if want := "stage.Entry: internal error: injected cell failure"; ie.Error() != want {
			t.Errorf("workers=%d: Error() = %q, want %q", workers, ie.Error(), want)
		}
		if first == "" {
			first = ie.Error()
		} else if ie.Error() != first {
			t.Errorf("workers=%d: Error() = %q, differs from -j 1's %q", workers, ie.Error(), first)
		}
	}
}

// TestEachLowestErrorWins: the reported error is the lowest failing
// index, matching what a sequential loop would report, even when a
// higher index fails first in time.
func TestEachLowestErrorWins(t *testing.T) {
	leakcheck.Check(t)
	want := errors.New("cell 3")
	err := Each(4, 16, func(_, i int) error {
		switch i {
		case 3:
			time.Sleep(5 * time.Millisecond)
			return want
		case 9:
			return errors.New("cell 9")
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
}
