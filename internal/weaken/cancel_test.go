package weaken

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/mc"
	"repro/internal/obs"
)

// cancelAfter is a context whose Err flips to Canceled once the run has
// completed k verifications, counted by the weaken.verify_micros
// histogram that every check observes when it returns.
type cancelAfter struct {
	context.Context
	checks *obs.Histogram
	k      int64
}

func (c *cancelAfter) Err() error {
	if c.checks.Count() >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelLeavesVerifiedModule pins the Options.Context promise: a
// run canceled after any verification leaves the module in its last
// verified state. Both programs delete fences, so batches that delete
// fences are applied and reverted along the way. For each k up to the
// full run's verification count the run is canceled after the k-th
// one; it must return a canceled error and leave a module that passes
// ir.Verify and that the checker re-verifies to the baseline verdict
// with no race outside the baseline's.
func TestCancelLeavesVerifiedModule(t *testing.T) {
	for _, name := range []string{"seqlock", "ck_sequence"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "ck_sequence" && raceEnabled {
				t.Skip("too slow under the race detector")
			}
			t.Parallel()
			ported, entries := diffTarget{name: name}.ported(t)
			// Verdict-only, like the weakening bench: the benign retry
			// races make the fingerprinted state space intractable.
			opts := DefaultOptions(entries)
			opts.DetectRaces = false
			check := func(m *ir.Module) *mc.Result {
				t.Helper()
				res, err := mc.Check(m, mc.Options{
					Model: opts.Model, Entries: opts.Entries, DetectRaces: opts.DetectRaces,
					MaxExecutions: 200_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := check(ported)
			baseRace := make(map[string]bool)
			for _, r := range base.Races {
				baseRace[r.Key()] = true
			}
			for _, workers := range []int{1, 4} {
				opts.Workers = workers
				prov := obs.New()
				opts.Obs = prov
				opts.Context = nil
				_, full, err := OptimizeClone(ported, opts)
				if err != nil {
					t.Fatal(err)
				}
				if full.FencesDeleted == 0 {
					t.Fatalf("-j %d: no fence deleted; the test would not exercise deletion reverts", workers)
				}
				n := prov.Histogram("weaken.verify_micros").Count()
				for k := int64(1); k <= n; k++ {
					m, err := ir.CloneModule(ported)
					if err != nil {
						t.Fatal(err)
					}
					prov := obs.New()
					opts.Obs = prov
					opts.Context = &cancelAfter{Context: context.Background(), checks: prov.Histogram("weaken.verify_micros"), k: k}
					if _, err := Optimize(m, opts); !errors.Is(err, context.Canceled) {
						t.Fatalf("-j %d, canceled after check %d of %d: err %v, want canceled", workers, k, n, err)
					}
					if err := ir.Verify(m); err != nil {
						t.Fatalf("-j %d, canceled after check %d: module fails ir.Verify: %v", workers, k, err)
					}
					res := check(m)
					if res.Verdict != base.Verdict {
						t.Fatalf("-j %d, canceled after check %d: module re-verifies %s, baseline %s", workers, k, res.Verdict, base.Verdict)
					}
					for _, r := range res.Races {
						if !baseRace[r.Key()] {
							t.Fatalf("-j %d, canceled after check %d: new race %s", workers, k, r.Key())
						}
					}
				}
				t.Logf("-j %d: canceled after each of %d checks; every module re-verified %s", workers, n, base.Verdict)
			}
		})
	}
}

// screenPanic is a context whose Err panics when the screening fan-out
// calls it, standing in for a bug on a screening worker.
type screenPanic struct{ context.Context }

func (c screenPanic) Err() error {
	// Only the screen's own cancellation checks panic (its fan-out
	// callback, possibly through ctxErr), not the checker's.
	pcs := make([]uintptr, 2)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "repro/internal/weaken.") {
			break
		}
		if strings.Contains(f.Function, "(*weakener).screen.") {
			panic("injected screening failure")
		}
		if !more {
			break
		}
	}
	return c.Context.Err()
}

// TestScreeningPanicContained: a panic on a screening worker comes back
// from Optimize as a diag.InternalError with the same one-line Error()
// at -j 1 and -j 4, leaves no goroutine behind, and leaves the module
// verifiable — screening only ever touches clones.
func TestScreeningPanicContained(t *testing.T) {
	leakcheck.Check(t)
	ported, entries := diffTarget{name: "seqlock"}.ported(t)
	opts := DefaultOptions(entries)
	opts.DetectRaces = false
	opts.Context = screenPanic{context.Background()}
	var first string
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		m, err := ir.CloneModule(ported)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Optimize(m, opts)
		ie, ok := diag.AsInternal(err)
		if !ok {
			t.Fatalf("-j %d: want diag.InternalError, got %T: %v", workers, err, err)
		}
		msg := ie.Error()
		if want := "weaken.Optimize: internal error: injected screening failure"; msg != want {
			t.Errorf("-j %d: Error() = %q, want %q", workers, msg, want)
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Errorf("-j %d: Error() = %q, differs from -j 1's %q", workers, msg, first)
		}
		if onWorker := strings.Contains(ie.Diagnostics(), "created by repro/internal/fanout.Each"); onWorker != (workers > 1) {
			t.Errorf("-j %d: panic on a fan-out worker goroutine = %t, want %t", workers, onWorker, workers > 1)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("-j %d: module fails ir.Verify after the panic: %v", workers, err)
		}
	}
}
