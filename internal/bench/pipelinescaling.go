package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/minic"
	"repro/internal/obs"
)

// PipelineScalingRow is one (module, worker-count) measurement of the
// full pipeline: MiniC compile (lex, parse, lower+verify) plus port.
// ElapsedMS is compile + port wall clock — "lines per second" means
// source text in, ported module out, not port-only (the pre-frontend-
// parallelism envelopes in BENCH_pipeline.json measured port time on a
// pre-compiled module; EXPERIMENTS.md documents the methodology
// change). Speedup is relative to the first worker count in the sweep
// (canonically 1); OutputHash is the SHA-256 of the ported module
// text, which must be identical for every worker count.
type PipelineScalingRow struct {
	Module      string  `json:"module"`
	SLOC        int     `json:"sloc"`
	Funcs       int     `json:"funcs"`
	Workers     int     `json:"workers"`
	LexMS       float64 `json:"lex_ms"`
	ParseMS     float64 `json:"parse_ms"`
	LowerMS     float64 `json:"lower_ms"` // lowering + IR verify
	PortMS      float64 `json:"port_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"` // compile + port
	LinesPerSec float64 `json:"lines_per_sec"`
	Speedup     float64 `json:"speedup"`
	Spinloops   int     `json:"spinloops"`
	Optiloops   int     `json:"optiloops"`
	StickyMark  int     `json:"sticky_marked"`
	Fences      int     `json:"fences"`
	AliasMerges int64   `json:"alias_merges"`
	OutputHash  string  `json:"output_hash"`
}

// DefaultPipelineScalingSLOC is the generated-module size the scaling
// claim is measured on (>= 100k lines, acceptance criteria).
const DefaultPipelineScalingSLOC = 100_000

// DefaultPipelineScalingWorkers is the worker sweep (1 first: it is
// the speedup baseline).
func DefaultPipelineScalingWorkers() []int { return []int{1, 2, 4, 8} }

// SweepProcs reports the GOMAXPROCS value the scaling sweeps pin: at
// least the widest worker count in the sweep, never below the ambient
// setting. Without the pin, a sweep run where the runtime default
// (NumCPU) is below max(-j) silently serializes the wider worker
// counts onto too few Ps and reports scheduling overhead as if it were
// parallel scaling — the recorded "-j 8 cliff" on a 1-CPU host was
// exactly that (EXPERIMENTS.md). Recording the pin next to
// runtime.NumCPU in the JSON envelope makes such runs identifiable.
func SweepProcs(workerCounts []int) int {
	if len(workerCounts) == 0 {
		workerCounts = DefaultPipelineScalingWorkers()
	}
	p := runtime.GOMAXPROCS(0)
	for _, j := range workerCounts {
		if j > p {
			p = j
		}
	}
	return p
}

// Oversubscribed reports whether the sweep's pinned GOMAXPROCS exceeds
// the host's CPU count — i.e. the wider worker counts time-slice on
// too few cores and absolute speedups are meaningless. Benchmark
// envelopes record this flag so a reader never mistakes an
// oversubscribed sweep for a real scaling measurement, and the
// CPU-gated speedup tests skip when it is true.
func Oversubscribed(workerCounts []int) bool {
	return SweepProcs(workerCounts) > runtime.NumCPU()
}

// pinProcs pins GOMAXPROCS to SweepProcs for the duration of one sweep;
// the returned func restores the previous value.
func pinProcs(workerCounts []int) func() {
	prev := runtime.GOMAXPROCS(SweepProcs(workerCounts))
	return func() { runtime.GOMAXPROCS(prev) }
}

// PipelineScaling generates one large module (appgen.LargeSpec), then
// compiles and ports it end to end at every worker count — the
// frontend fan-out (minic.Options.Workers) and the pipeline fan-out
// (atomig.Options.Workers) both set to j, so the row measures what
// `atomig -j N file.c` costs. Each j compiles the same source fresh
// (Port mutates its module in place). It fails if the ported output is
// not byte-identical across worker counts — the determinism contract
// of docs/PIPELINE.md. A non-nil provider accumulates frontend.* and
// pipeline.* metrics and phase spans (atomig-bench -exp
// pipeline-scaling -metrics/-trace).
func PipelineScaling(sloc int, seed int64, workerCounts []int, prov *obs.Provider) ([]PipelineScalingRow, error) {
	if sloc <= 0 {
		sloc = DefaultPipelineScalingSLOC
	}
	if len(workerCounts) == 0 {
		workerCounts = DefaultPipelineScalingWorkers()
	}
	defer pinProcs(workerCounts)()
	spec := appgen.LargeSpec("pipeline-scaling", sloc, seed)
	src, _ := appgen.GenerateLarge(spec)
	lines := strings.Count(src, "\n")

	var rows []PipelineScalingRow
	var baseline time.Duration
	var baseHash string
	for i, j := range workerCounts {
		res, ph, err := compileTraced(spec.Name+".c", src, j, prov)
		if err != nil {
			return nil, fmt.Errorf("bench: compile %d-line module -j %d: %w", sloc, j, err)
		}
		opts := atomig.DefaultOptions()
		opts.Workers = j
		opts.Obs = prov
		rep, err := atomig.Port(res.Module, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: port -j %d: %w", j, err)
		}
		elapsed := ph.elapsed + rep.Duration
		sum := sha256.Sum256([]byte(res.Module.String()))
		hash := hex.EncodeToString(sum[:8])
		if i == 0 {
			baseline, baseHash = elapsed, hash
		} else if hash != baseHash {
			return nil, fmt.Errorf("bench: ported output drift between -j %d and -j %d (hash %s vs %s)",
				workerCounts[0], j, baseHash, hash)
		}
		row := PipelineScalingRow{
			Module:      spec.Name,
			SLOC:        lines,
			Funcs:       len(res.Module.Funcs),
			Workers:     j,
			LexMS:       ph.lex,
			ParseMS:     ph.parse,
			LowerMS:     ph.lower,
			PortMS:      ms(rep.Duration),
			ElapsedMS:   ms(elapsed),
			Spinloops:   rep.Spinloops,
			Optiloops:   rep.Optiloops,
			StickyMark:  rep.StickyMarked,
			Fences:      rep.ExplicitAdded,
			AliasMerges: rep.AliasMerges,
			OutputHash:  hash,
		}
		if elapsed > 0 {
			row.LinesPerSec = float64(lines) / elapsed.Seconds()
			row.Speedup = float64(baseline) / float64(elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phases is one compile's wall clock and its lex, parse and lower
// times in ms; lower includes the IR verify, as the row columns do.
type phases struct {
	elapsed           time.Duration
	lex, parse, lower float64
}

// compileTraced compiles src under a tracer — prov's own when it
// traces, else a private one beside prov's metrics — and reads the
// phase times from the compile's frontend.* spans, the same data
// perfbench and a trace export show.
func compileTraced(name, src string, workers int, prov *obs.Provider) (*minic.Result, phases, error) {
	p := prov
	if p == nil || p.Tracer == nil {
		p = obs.NewTracing()
		if prov != nil {
			p.Registry, p.Logs = prov.Registry, prov.Logs
		}
	}
	start := time.Now()
	res, err := minic.CompileOpts(name, src, minic.Options{Workers: workers, Obs: p})
	ph := phases{elapsed: time.Since(start)}
	if err != nil {
		return nil, ph, err
	}
	// A caller's tracer may hold earlier compiles: the last span of each
	// phase is this one's.
	begin := make(map[string]float64)
	dur := make(map[string]float64)
	for _, ev := range p.Tracer.Events() {
		switch ev.Ph {
		case "B":
			begin[ev.Name] = ev.TS
		case "E":
			dur[ev.Name] = (ev.TS - begin[ev.Name]) / 1e3
		}
	}
	ph.lex, ph.parse = dur["frontend.lex"], dur["frontend.parse"]
	ph.lower = dur["frontend.lower"] + dur["frontend.verify"]
	return res, ph, nil
}

// FormatPipelineScaling renders the sweep.
func FormatPipelineScaling(rows []PipelineScalingRow) string {
	var b strings.Builder
	b.WriteString("Pipeline scaling, end to end (parallel frontend + parallel port)\n")
	fmt.Fprintf(&b, "%-18s %8s %6s %3s %9s %9s %9s %9s %11s %12s %8s %6s %s\n",
		"module", "sloc", "funcs", "j", "lex", "parse", "lower", "port", "elapsed", "lines/sec", "speedup", "fences", "output")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %6d %3d %7.1fms %7.1fms %7.1fms %7.1fms %9.1fms %12.0f %7.2fx %6d %s\n",
			r.Module, r.SLOC, r.Funcs, r.Workers, r.LexMS, r.ParseMS, r.LowerMS, r.PortMS,
			r.ElapsedMS, r.LinesPerSec, r.Speedup, r.Fences, r.OutputHash)
	}
	return b.String()
}

// FrontendScalingRow is one (module, worker-count) measurement of the
// frontend alone: MiniC source in, verified AIR module out. OutputHash
// is the SHA-256 of the module text — identical for every worker
// count, the frontend half of the determinism contract.
type FrontendScalingRow struct {
	Module      string  `json:"module"`
	SLOC        int     `json:"sloc"`
	Funcs       int     `json:"funcs"`
	Workers     int     `json:"workers"`
	LexMS       float64 `json:"lex_ms"`
	ParseMS     float64 `json:"parse_ms"`
	LowerMS     float64 `json:"lower_ms"` // lowering + IR verify
	ElapsedMS   float64 `json:"elapsed_ms"`
	LinesPerSec float64 `json:"lines_per_sec"`
	Speedup     float64 `json:"speedup"`
	OutputHash  string  `json:"output_hash"`
}

// FrontendScaling compiles the generated module at every worker count,
// isolating the frontend's scaling from the port's. Hash drift across
// worker counts is a hard error.
func FrontendScaling(sloc int, seed int64, workerCounts []int, prov *obs.Provider) ([]FrontendScalingRow, error) {
	if sloc <= 0 {
		sloc = DefaultPipelineScalingSLOC
	}
	if len(workerCounts) == 0 {
		workerCounts = DefaultPipelineScalingWorkers()
	}
	defer pinProcs(workerCounts)()
	spec := appgen.LargeSpec("frontend-scaling", sloc, seed)
	src, _ := appgen.GenerateLarge(spec)
	lines := strings.Count(src, "\n")

	var rows []FrontendScalingRow
	var baseline time.Duration
	var baseHash string
	for i, j := range workerCounts {
		res, ph, err := compileTraced(spec.Name+".c", src, j, prov)
		elapsed := ph.elapsed
		if err != nil {
			return nil, fmt.Errorf("bench: compile %d-line module -j %d: %w", sloc, j, err)
		}
		sum := sha256.Sum256([]byte(res.Module.String()))
		hash := hex.EncodeToString(sum[:8])
		if i == 0 {
			baseline, baseHash = elapsed, hash
		} else if hash != baseHash {
			return nil, fmt.Errorf("bench: compiled module drift between -j %d and -j %d (hash %s vs %s)",
				workerCounts[0], j, baseHash, hash)
		}
		row := FrontendScalingRow{
			Module:     spec.Name,
			SLOC:       lines,
			Funcs:      len(res.Module.Funcs),
			Workers:    j,
			LexMS:      ph.lex,
			ParseMS:    ph.parse,
			LowerMS:    ph.lower,
			ElapsedMS:  ms(elapsed),
			OutputHash: hash,
		}
		if elapsed > 0 {
			row.LinesPerSec = float64(lines) / elapsed.Seconds()
			row.Speedup = float64(baseline) / float64(elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFrontendScaling renders the sweep.
func FormatFrontendScaling(rows []FrontendScalingRow) string {
	var b strings.Builder
	b.WriteString("Frontend scaling (chunked parallel parse, parallel per-function lowering)\n")
	fmt.Fprintf(&b, "%-18s %8s %6s %3s %9s %9s %9s %11s %12s %8s %s\n",
		"module", "sloc", "funcs", "j", "lex", "parse", "lower", "elapsed", "lines/sec", "speedup", "output")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %6d %3d %7.1fms %7.1fms %7.1fms %9.1fms %12.0f %7.2fx %s\n",
			r.Module, r.SLOC, r.Funcs, r.Workers, r.LexMS, r.ParseMS, r.LowerMS,
			r.ElapsedMS, r.LinesPerSec, r.Speedup, r.OutputHash)
	}
	return b.String()
}

// GenerateLargeSource writes the pipeline-scaling module's MiniC source
// (used by `make pipeline-smoke` and `make frontend-smoke` to port the
// same module through the atomig CLI at several worker counts).
func GenerateLargeSource(sloc int, seed int64) string {
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("pipeline-scaling", sloc, seed))
	return src
}
