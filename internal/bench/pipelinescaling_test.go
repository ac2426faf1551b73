package bench

import (
	"fmt"
	"testing"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/minic"
)

// TestPipelineScalingNoDrift is the determinism gate for the parallel
// pipeline end to end: compiling AND porting the generated module at
// 1, 2 and 8 workers must produce byte-identical output
// (PipelineScaling errors out on any hash drift). A smaller module
// than the headline run keeps this inside the regular test budget.
// Every row's phase columns come from the frontend spans and must be
// measured and fit in the row's elapsed time.
func TestPipelineScalingNoDrift(t *testing.T) {
	rows, err := PipelineScaling(12_000, 7, []int{1, 2, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.OutputHash != rows[0].OutputHash {
			t.Errorf("-j %d output hash %s differs from baseline %s", r.Workers, r.OutputHash, rows[0].OutputHash)
		}
		if r.Spinloops == 0 || r.Optiloops == 0 || r.Fences == 0 {
			t.Errorf("-j %d: degenerate module (spins %d, optiloops %d, fences %d)",
				r.Workers, r.Spinloops, r.Optiloops, r.Fences)
		}
		if r.ElapsedMS < r.PortMS {
			t.Errorf("-j %d: elapsed %.1fms < port %.1fms; compile time missing from the end-to-end figure",
				r.Workers, r.ElapsedMS, r.PortMS)
		}
		checkPhases(t, r.Workers, r.LexMS, r.ParseMS, r.LowerMS, r.ElapsedMS)
	}
}

// checkPhases requires every frontend phase column of a row to be
// measured (above 0) and the phases to fit in the row's elapsed time.
func checkPhases(t *testing.T, j int, lex, parse, lower, elapsed float64) {
	t.Helper()
	if lex <= 0 || parse <= 0 || lower <= 0 {
		t.Errorf("-j %d: phase columns lex %.3fms, parse %.3fms, lower %.3fms; want each above 0", j, lex, parse, lower)
	}
	if sum := lex + parse + lower; sum > elapsed {
		t.Errorf("-j %d: lex+parse+lower %.3fms exceeds elapsed %.3fms", j, sum, elapsed)
	}
}

// TestFrontendScalingNoDrift is the frontend half of the contract: the
// compiled (un-ported) module is byte-identical at every worker count,
// with every phase column measured, as in the pipeline sweep.
func TestFrontendScalingNoDrift(t *testing.T) {
	rows, err := FrontendScaling(12_000, 11, []int{1, 2, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.OutputHash != rows[0].OutputHash {
			t.Errorf("-j %d module hash %s differs from baseline %s", r.Workers, r.OutputHash, rows[0].OutputHash)
		}
		checkPhases(t, r.Workers, r.LexMS, r.ParseMS, r.LowerMS, r.ElapsedMS)
	}
}

// TestPortedOutputIdenticalAcrossWorkers pins the full-stack property
// directly (not through the bench sweep): a fresh generated module,
// compiled and ported at -j 1/2/4/8, yields byte-identical text. This
// is the exact claim `make frontend-smoke` checks through the CLI.
func TestPortedOutputIdenticalAcrossWorkers(t *testing.T) {
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("jdet", 8_000, 23))
	var want string
	for _, j := range []int{1, 2, 4, 8} {
		res, err := minic.CompileOpts("jdet.c", src, minic.Options{Workers: j})
		if err != nil {
			t.Fatalf("-j %d: compile: %v", j, err)
		}
		opts := atomig.DefaultOptions()
		opts.Workers = j
		if _, err := atomig.Port(res.Module, opts); err != nil {
			t.Fatalf("-j %d: port: %v", j, err)
		}
		got := res.Module.String()
		if j == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("-j %d ported output differs from -j 1 (%d vs %d bytes)", j, len(got), len(want))
		}
	}
}

// TestPipelineScalingSpeedup asserts the acceptance criterion — at
// least 2x end-to-end wall-clock speedup at -j 8 over -j 1 on a
// >= 100k-line module — on machines that can actually run 8 workers
// in parallel. On smaller or oversubscribed hosts the determinism half
// of the claim is still covered by TestPipelineScalingNoDrift.
func TestPipelineScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	requireParallelHost(t, 8)
	rows, err := PipelineScaling(DefaultPipelineScalingSLOC, 7, []int{1, 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var base, par float64
	for _, r := range rows {
		if r.SLOC < 100_000 {
			t.Fatalf("generated module is %d lines, want >= 100k", r.SLOC)
		}
		switch r.Workers {
		case 1:
			base = r.ElapsedMS
		case 8:
			par = r.ElapsedMS
		}
	}
	if par <= 0 {
		t.Fatal("no 8-worker measurement")
	}
	if speedup := base / par; speedup < 2 {
		t.Errorf("end-to-end speedup at -j 8 is %.2fx, want >= 2x (1-worker %.1fms, 8-worker %.1fms)",
			speedup, base, par)
	}
}

// BenchmarkPipelinePort times one full compile+port of a mid-sized
// generated module per iteration, one sub-benchmark per worker count —
// the `go test -bench` view of `atomig-bench -exp pipeline-scaling`.
func BenchmarkPipelinePort(b *testing.B) {
	src := GenerateLargeSource(30_000, 7)
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := minic.CompileOpts("bench.c", src, minic.Options{Workers: j})
				if err != nil {
					b.Fatal(err)
				}
				opts := atomig.DefaultOptions()
				opts.Workers = j
				if _, err := atomig.Port(res.Module, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
