// Top-level-declaration splitting: the parallel parser's chunker.
//
// MiniC's grammar makes top-level declaration boundaries recognizable
// from the token stream alone, without parsing: tracking only brace
// depth, a declaration ends at a ';' at depth zero (globals, struct
// declarations, prototypes — initializer lists and struct bodies close
// their braces before the ';') or at a '}' that returns the depth to
// zero and is not followed by a ';' (a function body). splitDecls
// computes those boundaries in one linear scan; parseChunked batches
// contiguous declaration runs into roughly even-sized chunks, parses
// them concurrently, and concatenates the fragment ASTs in source
// order — which reproduces the sequential parser's output exactly,
// because the parser carries no state across top-level declarations.
//
// Any input the splitter cannot prove well-bracketed (negative or
// unbalanced depth, trailing tokens after the last boundary) and any
// chunk parse error falls back to the sequential parser, so malformed
// source produces byte-identical errors at every worker count.
package minic

import (
	"fmt"

	"repro/internal/fanout"
	"repro/internal/obs"
)

// chunksPerWorker oversizes the chunk count relative to the worker
// count so a few declaration-heavy chunks cannot stall the tail of the
// sweep.
const chunksPerWorker = 4

// minChunkTokens keeps trivially small parses from fanning out, where
// coordination would dominate.
const minChunkTokens = 256

// splitDecls returns the token index one past the end of each
// top-level declaration, or ok=false when the stream is not provably
// well-bracketed (callers fall back to the sequential parser).
func splitDecls(toks []Token) (ends []int, ok bool) {
	depth := 0
	for i := range toks {
		if toks[i].Kind != TokPunct {
			continue
		}
		switch toks[i].Text {
		case "{":
			depth++
		case "}":
			depth--
			if depth < 0 {
				return nil, false
			}
			if depth == 0 {
				// A '}' closing to depth zero ends a function body
				// unless a ';' follows (struct declarations and
				// initializer lists end at that ';' instead).
				if i+1 >= len(toks) || toks[i+1].Kind != TokPunct || toks[i+1].Text != ";" {
					ends = append(ends, i+1)
				}
			}
		case ";":
			if depth == 0 {
				ends = append(ends, i+1)
			}
		}
	}
	if depth != 0 {
		return nil, false
	}
	if len(ends) == 0 || ends[len(ends)-1] != len(toks) {
		// Trailing tokens that form no complete declaration: let the
		// sequential parser produce the canonical error.
		return nil, false
	}
	return ends, true
}

// chunkSpans batches declaration boundaries into contiguous
// [start, end) token spans of roughly even size.
func chunkSpans(ends []int, nTok, workers int) [][2]int {
	target := nTok/(workers*chunksPerWorker) + 1
	if target < minChunkTokens {
		target = minChunkTokens
	}
	var spans [][2]int
	start := 0
	for _, e := range ends {
		if e-start >= target {
			spans = append(spans, [2]int{start, e})
			start = e
		}
	}
	if start < nTok {
		spans = append(spans, [2]int{start, nTok})
	}
	return spans
}

// parseTokens parses a full token stream, fanning out across workers
// when the splitter finds enough declaration boundaries. The result —
// AST and error alike — is identical to the sequential parser's for
// every worker count.
func parseTokens(toks []Token, workers int, prov *obs.Provider) (*File, error) {
	if workers > 1 && len(toks) >= minChunkTokens {
		if f, ok := parseChunked(toks, workers, prov); ok {
			return f, nil
		}
		prov.Counter("frontend.parse_fallbacks").Inc()
	}
	p := &Parser{toks: toks}
	return p.parseFile()
}

// parseChunked is the parallel parse path: split, fan out, merge in
// source order. ok=false means the caller must parse sequentially
// (unprovable bracketing, too few chunks to pay for the fan-out, or any
// chunk error — the sequential run then reports the canonical error).
func parseChunked(toks []Token, workers int, prov *obs.Provider) (*File, bool) {
	ends, ok := splitDecls(toks)
	if !ok || len(ends) < 2 {
		return nil, false
	}
	spans := chunkSpans(ends, len(toks), workers)
	if len(spans) < 2 {
		return nil, false
	}
	if workers > len(spans) {
		workers = len(spans)
	}
	prov.Counter("frontend.chunks_split").Add(int64(len(spans)))
	frags := make([]*File, len(spans))
	trks := make([]*obs.Track, workers)
	for w := range trks {
		trks[w] = prov.Track(fmt.Sprintf("frontend.worker-%02d", w))
	}
	err := fanout.Each(workers, len(spans), func(w, i int) error {
		sp := trks[w].Begin("frontend.parse_chunk")
		f, err := parseChunk(toks[spans[i][0]:spans[i][1]])
		sp.Arg("tokens", spans[i][1]-spans[i][0]).End()
		frags[i] = f
		return err
	})
	if err != nil {
		return nil, false
	}
	merged := &File{}
	for _, f := range frags {
		merged.Structs = append(merged.Structs, f.Structs...)
		merged.Globals = append(merged.Globals, f.Globals...)
		merged.Funcs = append(merged.Funcs, f.Funcs...)
	}
	return merged, true
}

// parseChunk parses one contiguous run of top-level declarations.
func parseChunk(toks []Token) (*File, error) {
	p := &Parser{toks: toks}
	f := &File{}
	for p.cur().Kind != TokEOF {
		if err := p.parseDecl(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}
