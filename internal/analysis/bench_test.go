package analysis

import (
	"testing"

	"repro/internal/appgen"
	"repro/internal/minic"
)

// BenchmarkSpinloopDetection measures end-to-end detection speed on a
// generated application (the scalability claim of Table 3 hinges on
// this staying near-linear in code size).
func BenchmarkSpinloopDetection(b *testing.B) {
	p := appgen.ProfileByName("memcached").Scaled(1)
	src := appgen.Generate(p, 7)
	res, err := minic.Compile("bench", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, f := range res.Module.Funcs {
			total += len(DetectSpinloops(f))
		}
		if total < p.Spinloops {
			b.Fatalf("detected %d spinloops, want >= %d", total, p.Spinloops)
		}
	}
}

// BenchmarkInline measures the pre-analysis inliner.
func BenchmarkInline(b *testing.B) {
	p := appgen.ProfileByName("memcached").Scaled(4)
	src := appgen.Generate(p, 7)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := minic.Compile("bench", src)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		Inline(res.Module)
	}
}
