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

// inlineLike applies the same inlining pass Port would run under opts,
// producing the analyzed snapshot a daemon hashes against.
func inlineLike(t *testing.T, m *ir.Module, opts Options) {
	t.Helper()
	if opts.Inline {
		analysis.Inline(m, opts.InlineOptions)
	}
}

// TestDetectCacheByteIdentity is the core incremental contract: porting
// with a cold cache, porting with a warm cache, and porting without any
// cache all produce byte-identical modules — the cache only changes how
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

			ref, _, err := PortClone(base, DefaultOptions())
			if err != nil {
				t.Fatalf("uncached port: %v", err)
			}
			want := ref.String()

			cache := NewMemCache()
			opts := DefaultOptions()
			opts.Detect = cache
			opts.Workers = 4

			cold, coldRep, err := PortClone(base, opts)
			if err != nil {
				t.Fatalf("cold port: %v", err)
			}
			if got := cold.String(); got != want {
				t.Errorf("cold-cache port differs from uncached port")
			}
			if coldRep.CacheMisses == 0 || coldRep.CacheHits != 0 {
				t.Errorf("cold run: hits=%d misses=%d, want 0 hits and >0 misses",
					coldRep.CacheHits, coldRep.CacheMisses)
			}
			if cache.Len() == 0 {
				t.Errorf("cold run populated no cache entries")
			}

			warm, warmRep, err := PortClone(base, opts)
			if err != nil {
				t.Fatalf("warm port: %v", err)
			}
			if got := warm.String(); got != want {
				t.Errorf("warm-cache port differs from uncached port")
			}
			if warmRep.CacheMisses != 0 || warmRep.CacheHits == 0 {
				t.Errorf("warm run: hits=%d misses=%d, want 0 misses and >0 hits",
					warmRep.CacheHits, warmRep.CacheMisses)
			}
		})
	}
}

// TestDetectCachePrecomputedHashes checks Options.FuncHashes: supplying
// the keys up front must hit exactly like hashing in place, and a
// wrong-length slice falls back silently.
func TestDetectCachePrecomputedHashes(t *testing.T) {
	base, _ := compileLarge(t, appgen.LargeSpec("hashes-4k", 4000, 3))
	cache := NewMemCache()
	opts := DefaultOptions()
	opts.Detect = cache
	if _, _, err := PortClone(base, opts); err != nil {
		t.Fatalf("cold port: %v", err)
	}

	// The daemon hashes the analyzed snapshot: post-inline bodies under
	// Inline=false options — mirror that here.
	popts := opts
	popts.Inline = false
	snap := mustClone(t, base)
	inlineLike(t, snap, opts)
	salt := CacheSalt(snap, popts)
	hashes := make([]string, len(snap.Funcs))
	for i, f := range snap.Funcs {
		hashes[i] = FuncKey(salt, f)
	}
	popts.FuncHashes = hashes
	ported, rep, err := PortClone(snap, popts)
	if err != nil {
		t.Fatalf("hashed port: %v", err)
	}
	if rep.CacheMisses != 0 || rep.CacheHits == 0 {
		t.Errorf("precomputed hashes: hits=%d misses=%d, want all hits", rep.CacheHits, rep.CacheMisses)
	}
	ref, _, err := PortClone(base, DefaultOptions())
	if err != nil {
		t.Fatalf("reference port: %v", err)
	}
	if ported.String() != ref.String() {
		t.Errorf("hash-fed port differs from reference port")
	}

	// Wrong-length FuncHashes must be ignored, not crash or mis-key.
	popts.FuncHashes = hashes[:1]
	ported2, _, err := PortClone(snap, popts)
	if err != nil {
		t.Fatalf("short-hash port: %v", err)
	}
	if ported2.String() != ref.String() {
		t.Errorf("short-hash port differs from reference port")
	}
}

// corruptCache wraps a MemCache and hands back summaries that cannot
// replay (positions beyond any function), forcing the fallback path.
type corruptCache struct{ inner *MemCache }

func (c *corruptCache) Get(key string) (*FuncSummary, bool) {
	if _, ok := c.inner.Get(key); ok {
		return &FuncSummary{accesses: []accessSummary{{pos: 1 << 30}}}, true
	}
	return nil, false
}
func (c *corruptCache) Put(key string, s *FuncSummary) { c.inner.Put(key, s) }

// TestDetectCacheCorruptFallback: a summary that fails replay
// validation degrades to full re-analysis — same output, counted as a
// miss — never a wrong port.
func TestDetectCacheCorruptFallback(t *testing.T) {
	base, _ := compileLarge(t, appgen.LargeSpec("corrupt-4k", 4000, 5))
	ref, _, err := PortClone(base, DefaultOptions())
	if err != nil {
		t.Fatalf("reference port: %v", err)
	}

	mem := NewMemCache()
	opts := DefaultOptions()
	opts.Detect = mem
	if _, _, err := PortClone(base, opts); err != nil {
		t.Fatalf("seed port: %v", err)
	}

	opts.Detect = &corruptCache{inner: mem}
	ported, rep, err := PortClone(base, opts)
	if err != nil {
		t.Fatalf("corrupt-cache port: %v", err)
	}
	if ported.String() != ref.String() {
		t.Errorf("corrupt-cache port differs from reference — fallback is unsound")
	}
	if rep.CacheHits != 0 {
		t.Errorf("corrupt entries counted as hits: %d", rep.CacheHits)
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

// panicCache panics inside the detection worker pool.
type panicCache struct{}

func (panicCache) Get(string) (*FuncSummary, bool) { panic("injected cache failure") }
func (panicCache) Put(string, *FuncSummary)        {}

// TestPortWorkerPanicContained: a panic on a worker must drain the
// fan-out, re-raise on the coordinator, and surface as a structured
// diag.InternalError from Port — not kill the process or leak workers —
// whose Error() is the same one line at every worker count.
func TestPortWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	base, _ := compileLarge(t, appgen.LargeSpec("panic-4k", 4000, 13))
	var first string
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Detect = panicCache{}
		_, _, err := PortClone(base, opts)
		if err == nil {
			t.Fatalf("-j %d: panicking port returned nil error", workers)
		}
		ie, ok := diag.AsInternal(err)
		if !ok {
			t.Fatalf("-j %d: want diag.InternalError, got %T: %v", workers, err, err)
		}
		if !strings.Contains(ie.Diagnostics(), "injected cache failure") {
			t.Errorf("-j %d: diagnostics lost the panic value: %s", workers, ie.Error())
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
