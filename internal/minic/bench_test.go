package minic

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/appgen"
)

// BenchmarkCompile measures frontend throughput (lex, parse, lower,
// verify) in source lines per second — the "Build Time" column of
// Table 3 is dominated by this path.
func BenchmarkCompile(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("int g0;\nint g1;\n")
	for f := 0; f < 400; f++ {
		sb.WriteString("int fn")
		sb.WriteString(strings.Repeat("x", f%3+1))
		sb.WriteString(string(rune('a' + f%26)))
		sb.WriteString(itoa(f))
		sb.WriteString(`(int a, int b) {
  int acc = a;
  for (int i = 0; i < 10; i = i + 1) {
    acc = acc + b * i;
    if (acc > 1000) { acc = acc - b; }
  }
  g0 = g0 + 1;
  return acc + g1;
}
`)
	}
	src := sb.String()
	lines := strings.Count(src, "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("bench", src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lines), "lines/op")
}

// TestTokenizeAllocs is the lexer's allocation-regression gate.
// Steady state the lexer allocates only the preallocated token slice,
// the intern map, and one clone per distinct identifier — measured
// ~0.14 allocs per source line on the chunkSource module. The bound
// has ~3x headroom; blowing through it means a hot path regained a
// per-token allocation (error construction, substring copies, slice
// regrowth).
func TestTokenizeAllocs(t *testing.T) {
	src := chunkSource(100)
	lines := strings.Count(src, "\n")
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Tokenize(src); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / float64(lines); perLine > 0.5 {
		t.Errorf("Tokenize allocates %.0f times (%.3f/line) on %d lines, want <= 0.5/line",
			allocs, perLine, lines)
	}
}

// TestTokenizeBytes bounds the bytes Tokenize allocates, which
// TestTokenizeAllocs cannot see: a token slice that regrows costs a few
// allocations but up to twice its final size again. On the 100k-line
// generated module Tokenize may allocate at most 1.5 times its final
// token array; a slice sized for one token per 4 bytes regrows twice
// there and allocates 2.75 times.
func TestTokenizeBytes(t *testing.T) {
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("tokenize", 100_000, 7))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	toks, err := Tokenize(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	array := float64(len(toks)) * float64(unsafe.Sizeof(Token{}))
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d tokens in %d bytes: allocated %.1f MB for a %.1f MB token array (%.2fx)",
		len(toks), len(src), got/(1<<20), array/(1<<20), got/array)
	if got > 1.5*array {
		t.Errorf("Tokenize allocated %.2fx its final token array, want <= 1.5x", got/array)
	}
}

// TestParseAllocs gates the parser: allocations should be AST nodes
// and little else — measured ~6.3 allocs per source line. The bound
// has ~1.6x headroom for grammar growth without masking a regression
// to per-token scratch allocation.
func TestParseAllocs(t *testing.T) {
	src := chunkSource(100)
	lines := strings.Count(src, "\n")
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := (&Parser{toks: toks}).parseFile(); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / float64(lines); perLine > 10 {
		t.Errorf("parse allocates %.0f times (%.3f/line) on %d lines, want <= 10/line",
			allocs, perLine, lines)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
