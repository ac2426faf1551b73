package bench

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/memmodel"
	"repro/internal/race"
	"repro/internal/vm"
)

// TestDetectorDoesNotPerturbExecution: the hook is observation-only —
// the same (program, model, scheduler, seed) must take identical steps
// and produce identical counters with and without the detector.
func TestDetectorDoesNotPerturbExecution(t *testing.T) {
	p := corpus.Get("seqlock-gap")
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runOnce := func(hook vm.Hook) *vm.Result {
		res, err := vm.Run(m, vm.Options{
			Model:      memmodel.ModelWMM,
			Entries:    p.PerfEntries,
			Controller: vm.NewScheduler(vm.SchedDelay, 7),
			Hook:       hook,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	plain := runOnce(nil)
	det := race.New(memmodel.ModelWMM, race.Options{})
	hooked := runOnce(det)
	if plain.Steps != hooked.Steps {
		t.Errorf("detector changed step count: %d vs %d", plain.Steps, hooked.Steps)
	}
	if plain.Counters != hooked.Counters {
		t.Errorf("detector changed counters: %+v vs %+v", plain.Counters, hooked.Counters)
	}
	if plain.MaxCycles != hooked.MaxCycles {
		t.Errorf("detector changed makespan: %d vs %d", plain.MaxCycles, hooked.MaxCycles)
	}
}

func benchmarkVM(b *testing.B, hook func() vm.Hook) {
	p := corpus.Get("lf_hash")
	if p == nil || len(p.PerfEntries) == 0 {
		b.Skip("lf_hash perf harness unavailable")
	}
	m, err := p.Compile()
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		opts := vm.Options{
			Model:      memmodel.ModelWMM,
			Entries:    p.PerfEntries,
			Controller: vm.NewScheduler(vm.SchedRandom, int64(i)+1),
			MaxSteps:   p.PerfSteps,
			Costs:      vm.DefaultCosts(),
		}
		if hook != nil {
			opts.Hook = hook()
		}
		res, err := vm.Run(m, opts)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkVMNoDetector is the baseline interpreter throughput: the
// hook seam disabled (nil), one predictable branch per event site.
func BenchmarkVMNoDetector(b *testing.B) {
	benchmarkVM(b, nil)
}

// BenchmarkVMDetector attaches a fresh detector per execution.
func BenchmarkVMDetector(b *testing.B) {
	benchmarkVM(b, func() vm.Hook {
		return race.New(memmodel.ModelWMM, race.Options{})
	})
}
