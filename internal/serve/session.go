// Session state: each named session owns one module and its
// incremental-analysis companion state. The base module is the
// un-ported truth (what dump renders and edits mutate); the analyzed
// snapshot is a pre-inlined clone whose function-body hashes key the
// detection cache. Ports clone the snapshot and run the pipeline with
// inlining off, which performs the exact mutation sequence the CLI's
// inline-then-analyze port performs — so daemon output is byte-
// identical to `atomig -j 1` on the dumped module (the conformance
// contract, tested in serve_test.go).
package serve

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/weaken"
)

// session is one named module plus its incremental state.
type session struct {
	name string

	// mu orders mutations (load, edit — exclusive) against queries
	// (port, dump, explain, verify — shared; they clone under the read
	// lock and release it before the expensive work).
	mu sync.RWMutex

	base   *ir.Module // un-ported truth
	snap   *ir.Module // analyzed snapshot: clone(base) + inline
	hashes []string   // FuncKey per snap.Funcs, under salt
	salt   string
	cache  *atomig.MemCache

	// opt memoizes the last optimize result, keyed by the request's
	// weakening configuration (weaken.Options.Salt) plus the snapshot's
	// function hashes; an edit or an option flip changes the key and
	// forces a recompute. The detection cache needs no such key: it
	// holds summaries of the un-weakened snapshot, and weakening runs
	// on a ported clone (TestOptimizeSaltFlip).
	opt *optMemo
}

// optMemo is one memoized optimize result: the weakened module text,
// the port report that produced it, and the weakening result.
type optMemo struct {
	key  string
	res  *weaken.Result
	rep  *atomig.Report
	text string
}

// portOptions returns the pipeline options every port of this session
// runs with. Inline is off because the snapshot is already inlined;
// everything else matches atomig.DefaultOptions, the CLI default.
func portOptions() atomig.Options {
	opts := atomig.DefaultOptions()
	opts.Inline = false
	return opts
}

// newSession compiles source (MiniC or AIR, by lang) and builds the
// analyzed snapshot. workers is the frontend fan-out (the daemon's
// Options.Workers); the compiled module is byte-identical for every
// count, preserving the conformance contract.
func newSession(name, source, lang string, workers int, prov *obs.Provider) (*session, error) {
	var m *ir.Module
	switch lang {
	case "air":
		pm, err := ir.ParseModule(source)
		if err != nil {
			return nil, err
		}
		m = pm
	case "c":
		res, err := minic.CompileOpts(name, source, minic.Options{Workers: workers, Obs: prov})
		if err != nil {
			return nil, err
		}
		m = res.Module
	default:
		return nil, fmt.Errorf("unknown lang %q (want c or air)", lang)
	}
	s := &session{name: name, base: m, cache: atomig.NewMemCache()}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// langOf resolves the source language from an explicit lang field or
// the load name's suffix.
func langOf(lang, name string) string {
	if lang != "" {
		return lang
	}
	if strings.HasSuffix(name, ".air") {
		return "air"
	}
	return "c"
}

// rebuild recomputes the analyzed snapshot and its function hashes
// from base. Called under the write lock (or before publication).
func (s *session) rebuild() error {
	snap, err := ir.CloneModule(s.base)
	if err != nil {
		return err
	}
	analysis.Inline(snap, atomig.DefaultOptions().InlineOptions)
	s.snap = snap
	s.salt = atomig.CacheSalt(snap, portOptions())
	s.hashes = make([]string, len(snap.Funcs))
	for i, f := range snap.Funcs {
		s.hashes[i] = atomig.FuncKey(s.salt, f)
	}
	return nil
}

// edit applies a batch of function-level deltas transactionally: the
// whole batch lands on a clone, is verified, and only then replaces
// the session's module; any failure leaves the session untouched.
// Struct or global changes are not expressible as deltas — reload the
// module instead (docs/SERVE.md).
func (s *session) edit(replace []string, remove []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := ir.CloneModule(s.base)
	if err != nil {
		return err
	}
	header := s.base.HeaderString()
	for i, text := range replace {
		f, err := parseFuncDelta(header, text)
		if err != nil {
			return fmt.Errorf("replace[%d]: %w", i, err)
		}
		if err := next.ReplaceFunc(f); err != nil {
			return fmt.Errorf("replace[%d] @%s: %w", i, f.Name, err)
		}
	}
	for _, name := range remove {
		if !next.RemoveFunc(name) {
			return fmt.Errorf("remove @%s: no such function", name)
		}
	}
	if err := ir.Verify(next); err != nil {
		return fmt.Errorf("delta leaves module invalid: %w", err)
	}
	s.base = next
	return s.rebuild()
}

// parseFuncDelta parses one AIR function definition against the
// session's header (structs and globals) and returns the function.
func parseFuncDelta(header, text string) (*ir.Func, error) {
	m, err := ir.ParseModule(header + "\n" + text)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, fmt.Errorf("delta must contain exactly one function definition, got %d", len(m.Funcs))
	}
	return m.Funcs[0], nil
}

// port clones the analyzed snapshot and runs the cached pipeline on
// the clone under ctx. The expensive work happens outside the session
// lock — only the snapshot clone is taken under it, so concurrent
// ports proceed in parallel and edits order cleanly between them.
func (s *session) port(ctx context.Context, workers int, prov *obs.Provider) (*ir.Module, *atomig.Report, error) {
	s.mu.RLock()
	snap := s.snap
	hashes := s.hashes
	cache := s.cache
	clone, err := ir.CloneModule(snap)
	s.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	opts := portOptions()
	opts.Context = ctx
	opts.Detect = cache
	opts.FuncHashes = hashes
	opts.Workers = workers
	opts.Obs = prov
	rep, err := atomig.Port(clone, opts)
	if err != nil {
		return nil, nil, err
	}
	return clone, rep, nil
}

// optKey keys the optimize memo: the weakening configuration's salt
// plus the snapshot's function hashes (already salted by module header
// state), so an edit or an option flip misses.
func (s *session) optKey(salt string) string {
	return salt + "\x00" + strings.Join(s.hashes, "\x00")
}

// optimize ports the session (cached) and runs the weakening optimizer
// on the ported clone. The result is memoized per (configuration,
// snapshot) — a repeat request with the same options on an unedited
// module replays it (replayed=true) without re-running the checker.
// wopts carries the request's weakening options; Workers/Context/Obs
// are overridden with the server's.
func (s *session) optimize(ctx context.Context, workers int, prov *obs.Provider, wopts weaken.Options) (res *weaken.Result, rep *atomig.Report, text string, replayed bool, err error) {
	salt := wopts.Salt()
	s.mu.RLock()
	key := s.optKey(salt)
	if m := s.opt; m != nil && m.key == key {
		s.mu.RUnlock()
		return m.res, m.rep, m.text, true, nil
	}
	s.mu.RUnlock()

	ported, rep, err := s.port(ctx, workers, prov)
	if err != nil {
		return nil, nil, "", false, err
	}
	wopts.Workers = workers
	wopts.Context = ctx
	wopts.Obs = prov
	res, err = weaken.Optimize(ported, wopts)
	if err != nil {
		return nil, nil, "", false, err
	}
	text = ported.String()

	// Publish the memo only if the snapshot it was computed from is
	// still current (an edit racing this request invalidates it — serve
	// the response, drop the memo).
	s.mu.Lock()
	if s.optKey(salt) == key {
		s.opt = &optMemo{key: key, res: res, rep: rep, text: text}
	}
	s.mu.Unlock()
	return res, rep, text, false, nil
}

// dumpBase renders the un-ported module (the CLI-equivalence input).
func (s *session) dumpBase() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.String()
}

// cloneBase returns a private copy of the un-ported module for
// read-only analyses that execute it (race sweeps).
func (s *session) cloneBase() (*ir.Module, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ir.CloneModule(s.base)
}

// poison evicts every cached detection verdict. Called after a
// contained panic anywhere in a request touching this session: a
// panicking worker may have published a summary computed from
// corrupted state, and correctness must never depend on cache contents.
func (s *session) poison() {
	s.cache.Clear()
	s.mu.Lock()
	s.opt = nil
	s.mu.Unlock()
}

// readSource resolves a load request's source text: inline Source
// wins, else Path is read from disk.
func readSource(req *Request) (string, error) {
	if req.Source != "" {
		return req.Source, nil
	}
	if req.Path == "" {
		return "", fmt.Errorf("load needs source or path")
	}
	b, err := os.ReadFile(req.Path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
