// Package leakcheck asserts that a test leaves no goroutines behind.
// The worker pools in this repository (pipeline fan-out, mc frontier
// workers, race sweeps, difftest grid, the serving daemon) all promise
// that every goroutine they start exits before their entry point
// returns — on success, cancellation, and panic alike. leakcheck makes
// that promise testable without external dependencies: it snapshots the
// goroutine profile, runs the test, and retries the comparison briefly
// so goroutines that are mid-exit (runtime bookkeeping, closing
// net.Conns) are not reported as leaks.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// ignored reports whether a goroutine stack belongs to the runtime or
// test machinery rather than to code under test.
func ignored(stack string) bool {
	for _, frag := range []string{
		"testing.(*T).Run",   // the test runner itself
		"testing.(*M).",      // TestMain machinery
		"testing.runTests",   //
		"testing.tRunner",    // subtest parents blocked on children
		"runtime.goexit",     // fully-exited placeholder
		"created by runtime", // GC, scavenger, finalizer goroutines
		"runtime/pprof",      // the profiler taking this snapshot
		"signal.Notify",      // os/signal watcher, process-global
		"leakcheck.snapshot", // ourselves
		"testing.(*F).Fuzz",  // fuzz worker coordination
		"os/exec.(*Cmd)",     // exec helpers finishing I/O copies
		"go.itab",            // itab init goroutines (toolchain)
	} {
		if strings.Contains(stack, frag) {
			return true
		}
	}
	return false
}

// snapshot returns the stacks of all live goroutines that are not
// ignorable, one entry per goroutine.
func snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" || ignored(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// TB is the subset of *testing.T leakcheck needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Check registers a cleanup that fails the test if, after it finishes,
// more goroutines are alive than when Check was called. Call it at the
// top of a test:
//
//	func TestDaemon(t *testing.T) {
//	    leakcheck.Check(t)
//	    ...
//	}
//
// The comparison retries for up to ~2s so goroutines that are already
// unwinding do not count as leaks.
func Check(t TB) {
	t.Helper()
	before := len(snapshot())
	t.Cleanup(func() {
		if extra := wait(before, 2*time.Second); extra != nil {
			t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
				len(extra), strings.Join(extra, "\n\n"))
		}
	})
}

// wait polls until the live-goroutine count is back down to at most
// before, or the deadline passes; it returns the surplus stacks.
func wait(before int, d time.Duration) []string {
	deadline := time.Now().Add(d)
	for {
		now := snapshot()
		if len(now) <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return now
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Err is the non-test-bound form: it returns an error if the current
// non-ignorable goroutine count exceeds baseline after waiting up to d.
// The daemon's shutdown path uses it for a self-check in -serve smoke
// runs.
func Err(baseline int, d time.Duration) error {
	if extra := wait(baseline, d); extra != nil {
		return fmt.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
			len(extra), strings.Join(extra, "\n\n"))
	}
	return nil
}

// Count returns the current number of non-ignorable goroutines, the
// baseline input to Err.
func Count() int { return len(snapshot()) }
