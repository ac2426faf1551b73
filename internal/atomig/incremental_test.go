package atomig

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/appgen"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/leakcheck"
)

// mustClone deep-copies a module or fails the test.
func mustClone(t *testing.T, m *ir.Module) *ir.Module {
	t.Helper()
	c, err := ir.CloneModule(m)
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	return c
}

// TestDetectCacheByteIdentity is the core incremental contract: porting
// with no summaries, with empty slots, and with the slots that port
// filled all produce byte-identical modules — summaries only change how
// the analyses are obtained, never what the port does.
func TestDetectCacheByteIdentity(t *testing.T) {
	leakcheck.Check(t)
	for _, spec := range []appgen.ModuleSpec{
		{Name: "mix", Seed: 9, SpinSites: 3, StructSpinSites: 2, StructKinds: 1,
			NestedSpinSites: 2, SeqlockSites: 2, VolatileVars: 2, AtomicVars: 2, DataGlobals: 8, FillerFuncs: 16},
		appgen.LargeSpec("cache-8k", 8000, 11),
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base, _ := compileLarge(t, spec)

			ref, refRep, err := PortClone(base, DefaultOptions())
			if err != nil {
				t.Fatalf("port without summaries: %v", err)
			}
			want := ref.String()
			if refRep.CacheHits != 0 || refRep.CacheMisses != 0 {
				t.Errorf("port without summaries: hits=%d misses=%d, want 0 and 0", refRep.CacheHits, refRep.CacheMisses)
			}

			opts := DefaultOptions()
			opts.Summaries = make([]*FuncSummary, len(base.Funcs))
			opts.Workers = 4

			cold, coldRep, err := PortClone(base, opts)
			if err != nil {
				t.Fatalf("port with empty slots: %v", err)
			}
			if got := cold.String(); got != want {
				t.Errorf("port with empty slots differs from the port without summaries")
			}
			if coldRep.CacheHits != 0 || coldRep.CacheMisses != len(base.Funcs) {
				t.Errorf("empty slots: hits=%d misses=%d, want 0 hits and %d misses",
					coldRep.CacheHits, coldRep.CacheMisses, len(base.Funcs))
			}
			for i, sum := range opts.Summaries {
				if sum == nil {
					t.Fatalf("slot %d (@%s) left empty by the port", i, base.Funcs[i].Name)
				}
			}

			warm, warmRep, err := PortClone(base, opts)
			if err != nil {
				t.Fatalf("port with filled slots: %v", err)
			}
			if got := warm.String(); got != want {
				t.Errorf("port with filled slots differs from the port without summaries")
			}
			if warmRep.CacheMisses != 0 || warmRep.CacheHits != len(base.Funcs) {
				t.Errorf("filled slots: hits=%d misses=%d, want %d hits and 0 misses",
					warmRep.CacheHits, warmRep.CacheMisses, len(base.Funcs))
			}
		})
	}
}

// TestSummariesReplayOntoSnapshot: the slots an inlining port fills
// describe the inlined bodies, so they replay onto the inlined module a
// daemon keeps as its snapshot, ported with inlining off — every slot a
// hit, the output the inlining port's. A slot slice that does not match
// the module's functions is an error, not a silent fallback.
func TestSummariesReplayOntoSnapshot(t *testing.T) {
	base, _ := compileLarge(t, appgen.LargeSpec("snapshot-4k", 4000, 3))
	opts := DefaultOptions()
	opts.Summaries = make([]*FuncSummary, len(base.Funcs))
	ref, _, err := PortClone(base, opts)
	if err != nil {
		t.Fatalf("inlining port: %v", err)
	}

	snap := mustClone(t, base)
	analysis.Inline(snap)
	popts := opts
	popts.Inline = false
	ported, rep, err := PortClone(snap, popts)
	if err != nil {
		t.Fatalf("snapshot port: %v", err)
	}
	if rep.CacheMisses != 0 || rep.CacheHits != len(snap.Funcs) {
		t.Errorf("snapshot port: hits=%d misses=%d, want all %d hits", rep.CacheHits, rep.CacheMisses, len(snap.Funcs))
	}
	if ported.String() != ref.String() {
		t.Errorf("snapshot port differs from the inlining port")
	}

	popts.Summaries = popts.Summaries[:1]
	if _, _, err := PortClone(snap, popts); err == nil || !strings.Contains(err.Error(), "summary slots") {
		t.Errorf("port with 1 slot for %d functions: err = %v, want a slot-count error", len(snap.Funcs), err)
	}
}

// TestDetectCacheCorruptFallback: a summary that fails replay
// validation degrades to full re-analysis — same output, counted as a
// miss, its slot refilled — never a wrong port.
func TestDetectCacheCorruptFallback(t *testing.T) {
	base, _ := compileLarge(t, appgen.LargeSpec("corrupt-4k", 4000, 5))
	ref, _, err := PortClone(base, DefaultOptions())
	if err != nil {
		t.Fatalf("reference port: %v", err)
	}

	// Summaries that cannot replay: an access position beyond any
	// function.
	opts := DefaultOptions()
	opts.Summaries = make([]*FuncSummary, len(base.Funcs))
	for i := range opts.Summaries {
		opts.Summaries[i] = &FuncSummary{accesses: []accessSummary{{pos: 1 << 30}}}
	}
	ported, rep, err := PortClone(base, opts)
	if err != nil {
		t.Fatalf("corrupt-slot port: %v", err)
	}
	if ported.String() != ref.String() {
		t.Errorf("corrupt-slot port differs from reference — fallback is unsound")
	}
	if rep.CacheHits != 0 || rep.CacheMisses != len(base.Funcs) {
		t.Errorf("corrupt slots: hits=%d misses=%d, want 0 hits and %d misses", rep.CacheHits, rep.CacheMisses, len(base.Funcs))
	}
	if _, rep, err := PortClone(base, opts); err != nil || rep.CacheHits != len(base.Funcs) {
		t.Errorf("refilled slots: err=%v hits=%d, want all %d hits", err, rep.CacheHits, len(base.Funcs))
	}
}

// TestReplayChecksEveryAccess: a summary's fit check covers every
// memory access, not only the shared ones its alias contributions
// hold. Three bodies whose shared accesses sit at the same positions —
// a load of a local slot before an add, after it, or no such load — do
// not take each other's summaries.
func TestReplayChecksEveryAccess(t *testing.T) {
	parse := func(t3, t4 string) *ir.Func {
		m, err := ir.ParseModule("; module fit\n@a = global i64\n\n" +
			"define i64 @f(i64 %x) {\nentry:\n  %t0 = alloca i64\n  store %x, %t0\n  %t2 = load i64, @a\n" +
			"  %t3 = " + t3 + "\n  %t4 = " + t4 + "\n  %t5 = add %t2, %t3\n  store %t5, @a\n  ret %t5\n}\n")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return m.Funcs[0]
	}
	bodies := []*ir.Func{
		parse("load i64, %t0", "add %x, 1"),
		parse("add %x, 1", "load i64, %t0"),
		parse("add %x, 1", "add %x, 2"),
	}
	for i, f := range bodies {
		var sum *FuncSummary
		detectFunc(f, DefaultOptions(), &sum)
		if len(sum.accesses) != 2 {
			t.Fatalf("body %d: %d shared accesses summarized, want 2", i, len(sum.accesses))
		}
		for j, g := range bodies {
			if _, _, ok := sum.replay(g); ok != (i == j) {
				t.Errorf("body %d's summary fits body %d: %v, want %v", i, j, ok, i == j)
			}
		}
	}
}

// TestPortCanceled: a pre-canceled context stops the port with a
// wrapped context error and no goroutine debris.
func TestPortCanceled(t *testing.T) {
	leakcheck.Check(t)
	base, _ := compileLarge(t, appgen.LargeSpec("cancel-4k", 4000, 7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Context = ctx
	_, _, err := PortClone(base, opts)
	if err == nil {
		t.Fatal("canceled port returned nil error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("unexpected cancel error: %v", err)
	}
}

// TestPortWorkerPanicContained: a panic on a worker must drain the
// fan-out, re-raise on the coordinator, and surface as a structured
// diag.InternalError from Port — not kill the process or leak workers —
// whose Error() is the same one line at every worker count. The panic
// comes from a load stripped of its address operand, which detection
// indexes.
func TestPortWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	base, _ := compileLarge(t, appgen.LargeSpec("panic-4k", 4000, 13))
	var broken *ir.Instr
	for _, f := range base.Funcs[len(base.Funcs)/2:] {
		f.Instrs(func(in *ir.Instr) {
			if broken == nil && in.Op == ir.OpLoad {
				broken = in
			}
		})
	}
	if broken == nil {
		t.Fatal("module has no load to break")
	}
	broken.Args = nil
	var first string
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		_, _, err := PortClone(base, opts)
		if err == nil {
			t.Fatalf("-j %d: panicking port returned nil error", workers)
		}
		ie, ok := diag.AsInternal(err)
		if !ok {
			t.Fatalf("-j %d: want diag.InternalError, got %T: %v", workers, err, err)
		}
		if d := ie.Diagnostics(); !strings.Contains(d, "index out of range") || !strings.Contains(d, "detectFunc") {
			t.Errorf("-j %d: diagnostics lack the panic value or its detection frame:\n%s", workers, d)
		}
		msg := ie.Error()
		if strings.Contains(msg, "\n") {
			t.Errorf("-j %d: Error() spans %d lines, want one:\n%s", workers, strings.Count(msg, "\n")+1, msg)
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Errorf("-j %d: Error() = %q, differs from -j 1's %q", workers, msg, first)
		}
	}
}
