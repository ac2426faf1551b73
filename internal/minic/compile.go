// Compile driver: the frontend entry point, its options, and the
// fan-out of parsing and lowering.
//
// The frontend runs in four phases — lex, parse, lower, verify — and
// the middle two fan out across Options.Workers goroutines:
//
//   - parse: the token stream is split at balanced-brace top-level
//     declaration boundaries (split.go), contiguous declaration runs
//     are parsed concurrently, and the fragments are merged in source
//     order, so the AST is identical to a sequential Parse for every
//     worker count.
//   - lower: function bodies are lowered concurrently by fanout.Each
//     (instruction IDs and block names are per-function state, so each
//     lowered function is byte-identical to its sequential lowering);
//     per-function stats and NoInline marks land in per-function slots
//     merged in module order.
//
// Determinism contract: CompileOpts produces a byte-identical module
// (and identical Stats) for every Workers value — docs/PIPELINE.md
// ("Frontend").
package minic

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/fanout"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Options configures a Compile run. The zero value is the sequential,
// unobserved frontend (what Compile uses).
type Options struct {
	// Workers is the frontend fan-out: chunked parsing and
	// per-function lowering run on this many goroutines (0 or 1 means
	// sequential). The produced module is byte-identical for every
	// value.
	Workers int
	// Obs, when non-nil, records frontend.lex / frontend.parse /
	// frontend.lower / frontend.verify spans on the "frontend" track,
	// per-worker frontend.worker-NN timelines, and frontend.* counters
	// (docs/OBSERVABILITY.md).
	Obs *obs.Provider
}

// Result is the output of Compile: the AIR module and frontend stats.
// The per-phase times are the frontend.* spans (Options.Obs).
type Result struct {
	Module *ir.Module
	Stats  Stats
}

// Compile parses and lowers MiniC source into an AIR module named name
// on one goroutine. Malformed source produces an error, never a panic:
// internal panics in the lexer, parser or lowering are contained by
// the diag guard.
func Compile(name, src string) (*Result, error) {
	return CompileOpts(name, src, Options{})
}

// CompileOpts is Compile with a fan-out and observability: parsing and
// lowering fan out across opts.Workers goroutines with the module
// byte-identical at every worker count.
func CompileOpts(name, src string, opts Options) (res *Result, err error) {
	defer diag.Guard("minic.Compile", &err)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	trk := opts.Obs.Track("frontend")

	sp := trk.Begin("frontend.lex")
	toks, lerr := Tokenize(src)
	sp.End()
	if lerr != nil {
		return nil, fmt.Errorf("minic: %w", lerr)
	}
	opts.Obs.Counter("frontend.tokens_scanned").Add(int64(len(toks)))

	sp = trk.Begin("frontend.parse")
	file, perr := parseTokens(toks, workers, opts.Obs)
	sp.End()
	if perr != nil {
		return nil, fmt.Errorf("minic: %w", perr)
	}
	opts.Obs.Counter("frontend.decls_parsed").
		Add(int64(len(file.Structs) + len(file.Globals) + len(file.Funcs)))

	c := &compiler{
		mod:     ir.NewModule(name),
		structs: make(map[string]*ir.StructType),
		workers: workers,
		obs:     opts.Obs,
	}
	c.stats.SourceLines = countSourceLines(src)
	sp = trk.Begin("frontend.lower")
	cerr := c.compileFile(file)
	sp.End()
	if cerr != nil {
		return nil, fmt.Errorf("minic: %w", cerr)
	}

	sp = trk.Begin("frontend.verify")
	verr := ir.Verify(c.mod)
	sp.End()
	if verr != nil {
		return nil, fmt.Errorf("minic: lowering produced invalid IR: %w", verr)
	}

	c.stats.Functions = len(c.mod.Funcs)
	c.stats.Instrs = c.mod.NumInstrs()
	opts.Obs.Counter("frontend.funcs_lowered").Add(int64(c.stats.Functions))
	opts.Obs.Counter("frontend.lines_compiled").Add(int64(c.stats.SourceLines))
	return &Result{Module: c.mod, Stats: c.stats}, nil
}

// funcOut is one function's lowering result slot: per-function stats
// deltas (asm mapping counters) and the NoInline marks the body
// requested (spawn targets), applied sequentially in module order so
// the merged module and stats are identical for every worker count.
type funcOut struct {
	err      error
	stats    Stats
	noinline []*ir.Func
}

// compileFuncs lowers every function body, fanning out across the
// compiler's worker count. Workers write into per-function slots; the
// sequential merge consumes them in module order, so stats, NoInline
// marks and the reported error (the lowest failing function's) all
// match the sequential frontend.
func (c *compiler) compileFuncs(funcs []*FuncDecl) error {
	outs := make([]funcOut, len(funcs))
	scratch := make([]lowerScratch, min(c.workers, len(funcs)))
	err := fanout.Each(c.workers, len(funcs), func(w, i int) error {
		c.compileFunc(funcs[i], &scratch[w], &outs[i])
		return outs[i].err
	})
	if err != nil {
		return err
	}
	for i := range outs {
		c.mergeFuncOut(&outs[i])
	}
	return nil
}

func (c *compiler) mergeFuncOut(out *funcOut) {
	c.stats.AsmMapped += out.stats.AsmMapped
	c.stats.AsmOpaque += out.stats.AsmOpaque
	for _, fn := range out.noinline {
		fn.NoInline = true
	}
}
