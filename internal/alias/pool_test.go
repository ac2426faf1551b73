package alias

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/leakcheck"
)

// poolFuncs builds enough trivial functions to keep a multi-worker
// pool busy.
func poolFuncs(t *testing.T, n int) *ir.Module {
	t.Helper()
	var b strings.Builder
	b.WriteString("; module pool\n@g = global i64\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "define i64 @f%03d() {\nentry:\n  %%t0 = load i64, @g\n  ret %%t0\n}\n", i)
	}
	m, err := ir.ParseModule(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestBuildMapPanicPropagatesToCaller: a panic in the per-function
// callback must drain the worker pool and re-raise on the calling
// goroutine, where a recover (or a diag guard upstream) can contain it.
// An uncontained panic on a pool goroutine would abort the process and
// this test with it.
func TestBuildMapPanicPropagatesToCaller(t *testing.T) {
	leakcheck.Check(t)
	m := poolFuncs(t, 64)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to the caller")
		}
		pp, ok := r.(*diag.InternalError)
		if !ok {
			t.Fatalf("recovered %T, want *diag.InternalError", r)
		}
		if !strings.Contains(pp.Error(), "injected index failure") {
			t.Errorf("pool panic lost the original value: %s", pp.Error())
		}
	}()
	BuildMapFromAccesses(m, 4, func(fi int, f *ir.Func) []Access {
		if fi == 7 {
			panic("injected index failure")
		}
		return PrepareFunc(f)
	})
}

// TestBuildMapFromAccessesMatchesScan: feeding prepared contributions
// must build the same map as a direct scan, for several worker counts.
func TestBuildMapFromAccessesMatchesScan(t *testing.T) {
	leakcheck.Check(t)
	m := poolFuncs(t, 40)
	ref := BuildMapFromAccesses(m, 1, nil)
	prepared := make([][]Access, len(m.Funcs))
	for i, f := range m.Funcs {
		prepared[i] = PrepareFunc(f)
	}
	for _, w := range []int{1, 2, 4} {
		am := BuildMapFromAccesses(m, w, func(fi int, f *ir.Func) []Access {
			return prepared[fi]
		})
		if got, want := len(am.SharedLocs()), len(ref.SharedLocs()); got != want {
			t.Fatalf("workers=%d: %d shared locs, want %d", w, got, want)
		}
		for _, loc := range ref.SharedLocs() {
			if got, want := len(am.Buddies(loc)), len(ref.Buddies(loc)); got != want {
				t.Fatalf("workers=%d loc %s: %d buddies, want %d", w, loc, got, want)
			}
		}
	}
}
