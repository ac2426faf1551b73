// Session state: each named session owns one module and its
// incremental-analysis companion state. The base module is the
// un-ported truth (what dump renders and edits replace functions in);
// the analyzed snapshot holds base's functions pre-inlined, and their
// body hashes key the detection cache. Ports clone the snapshot and run
// the pipeline with inlining off, which performs the exact mutation
// sequence the CLI's inline-then-analyze port performs — so daemon
// output is byte-identical to `atomig -j 1` on the dumped module (the
// conformance contract, tested in serve_test.go).
//
// An edit costs what it changes: the next base and snapshot share every
// function the edit cannot have changed with the current ones, and only
// the changed functions are copied, verified, re-inlined and re-keyed.
package serve

import (
	"context"
	"fmt"
	"os"
	"slices"
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

	// base, snap and hashes are replaced, never mutated, once published:
	// later versions share their functions, and a port keeps using the
	// hashes it read after releasing the lock.
	base   *ir.Module // un-ported truth
	snap   *ir.Module // analyzed snapshot: base's functions, inlined
	hashes []string   // FuncKey per snap.Funcs, under salt
	salt   string
	cache  *atomig.MemCache

	// uses holds, per function of base, the names it calls or references:
	// the edges dependents walks, kept so that an edit reads only the
	// functions it changes.
	uses map[string][]string

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
	s := &session{name: name, cache: atomig.NewMemCache(), uses: make(map[string][]string)}
	all := make(map[string]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		all[f.Name] = true
	}
	s.rebuild(m, all)
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

// rebuild publishes base as the session's module together with its
// analyzed snapshot: the snapshot functions named in changed are
// re-inlined and re-keyed, every other function and its key is shared
// with the current snapshot. changed must hold every function of base
// whose inlined body can differ from the current snapshot's: the edited
// ones and all that transitively call or reference them (see
// dependents). Nothing is published until all of it is built, so a
// panic leaves the session as it was. Called under the write lock (or
// before publication); returns how many functions it rebuilt.
//
// The inliner only copies callees into callers, so its work on a
// function depends only on that function's callee closure, the
// closure's module order and the rounds; a round that inlines nothing
// inside a closure inlines nothing there in a larger module either. So
// inlining a scratch module holding just the changed functions and
// their callee closure, in module order, gives each changed function
// the body a whole-module inline gives it.
func (s *session) rebuild(base *ir.Module, changed map[string]bool) int {
	scratch := base.Derive(nil)
	scratch.ReplaceFuncs(calleeClosure(base, changed)...)
	analysis.Inline(scratch, atomig.DefaultOptions().InlineOptions)

	snap := scratch
	var fresh []*ir.Func
	for _, f := range base.Funcs {
		if changed[f.Name] {
			fresh = append(fresh, scratch.Func(f.Name))
		}
	}
	if len(scratch.Funcs) < len(base.Funcs) {
		// Keep the current snapshot's functions, in base order; the
		// changed ones are replaced by copies bound to the new snapshot.
		kept := make([]*ir.Func, 0, len(base.Funcs))
		for _, f := range base.Funcs {
			if g := s.snap.Func(f.Name); g != nil {
				kept = append(kept, g)
			}
		}
		snap = base.Derive(kept)
		snap.ReplaceFuncs(fresh...)
	}

	// Function edits cannot change the salt (it covers struct layouts and
	// global annotations only), so unchanged functions keep their keys.
	salt := atomig.CacheSalt(snap, portOptions())
	prev := make(map[string]string, len(s.hashes))
	for i, h := range s.hashes {
		prev[s.snap.Funcs[i].Name] = h
	}
	hashes := make([]string, len(snap.Funcs))
	for i, f := range snap.Funcs {
		if h, ok := prev[f.Name]; ok && !changed[f.Name] {
			hashes[i] = h
		} else {
			hashes[i] = atomig.FuncKey(salt, f)
		}
	}
	s.base, s.snap, s.salt, s.hashes = base, snap, salt, hashes
	for name := range changed {
		if f := base.Func(name); f != nil {
			s.uses[name] = usesOf(f)
		} else {
			delete(s.uses, name)
		}
	}
	return len(fresh)
}

// edit applies a batch of function-level deltas transactionally: the
// batch lands on a new module that shares every unchanged function with
// the current one, the changed functions are verified, and only then
// does it replace the session's module; any failure leaves the session
// untouched. Struct or global changes are not expressible as deltas —
// reload the module instead (docs/SERVE.md). It returns how many
// snapshot functions were rebuilt and how many were reused.
func (s *session) edit(replace []string, remove []string) (rebuilt, reused int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	srcs := make([]*ir.Func, 0, len(replace))
	names := make([]string, 0, len(replace)+len(remove))
	for i, text := range replace {
		f, err := ir.ParseFunc(s.base, text)
		if err != nil {
			return 0, 0, fmt.Errorf("replace[%d]: %w", i, err)
		}
		srcs = append(srcs, f)
		names = append(names, f.Name)
	}
	names = append(names, remove...)
	changed := dependents(s.uses, names)

	// Copy the batch, then every unchanged function that calls or
	// references a batch name, so each reference binds to the new module.
	batch := make(map[string]bool, len(names))
	for _, name := range names {
		batch[name] = true
	}
	for _, f := range s.base.Funcs {
		if changed[f.Name] && !batch[f.Name] {
			srcs = append(srcs, f)
		}
	}
	next := s.base.Derive(s.base.Funcs)
	next.ReplaceFuncs(srcs...)
	for _, name := range remove {
		if !next.RemoveFunc(name) {
			return 0, 0, fmt.Errorf("remove @%s: no such function", name)
		}
	}
	// Every other function verified before and names no changed
	// function, so this is Verify(next)'s verdict.
	for _, f := range next.Funcs {
		if changed[f.Name] {
			if err := ir.VerifyFunc(next, f); err != nil {
				return 0, 0, fmt.Errorf("delta leaves module invalid: %w", err)
			}
		}
	}
	rebuilt = s.rebuild(next, changed)
	return rebuilt, len(next.Funcs) - rebuilt, nil
}

// dependents returns names plus every function that transitively calls
// or references one of them, given each function's uses: the inliner
// copies callees into callers, and a reference must bind to the function
// that replaces its target. Edges out of the named functions add
// nothing, so the set is the same before and after an edit of them.
func dependents(uses map[string][]string, names []string) map[string]bool {
	users := make(map[string][]string)
	for f, us := range uses {
		for _, u := range us {
			users[u] = append(users[u], f)
		}
	}
	out := make(map[string]bool, len(names))
	stack := append([]string(nil), names...)
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[name] {
			continue
		}
		out[name] = true
		stack = append(stack, users[name]...)
	}
	return out
}

// usesOf returns the names f calls or references, sorted. Calls to
// builtins count too: a function added under a builtin's name takes
// over those calls.
func usesOf(f *ir.Func) []string {
	var out []string
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			out = append(out, in.Callee)
		}
		for _, a := range in.Args {
			if r, ok := a.(*ir.FuncRef); ok {
				out = append(out, r.Fn.Name)
			}
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// calleeClosure returns the functions of m named in names plus every
// function they transitively call, in module order.
func calleeClosure(m *ir.Module, names map[string]bool) []*ir.Func {
	in := make(map[string]bool, len(names))
	var stack []*ir.Func
	for name := range names {
		if f := m.Func(name); f != nil {
			in[name] = true
			stack = append(stack, f)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.Instrs(func(i *ir.Instr) {
			if g := m.Func(i.Callee); i.Op == ir.OpCall && g != nil && !in[g.Name] {
				in[g.Name] = true
				stack = append(stack, g)
			}
		})
	}
	out := make([]*ir.Func, 0, len(in))
	for _, f := range m.Funcs {
		if in[f.Name] {
			out = append(out, f)
		}
	}
	return out
}

// port clones the analyzed snapshot and runs the cached pipeline on
// the clone under ctx. The expensive work happens outside the session
// lock — only the snapshot clone is taken under it, so concurrent
// ports proceed in parallel and edits order cleanly between them.
func (s *session) port(ctx context.Context, workers int, prov *obs.Provider) (*ir.Module, *atomig.Report, error) {
	clone, hashes, err := s.cloneSnapshot()
	if err != nil {
		return nil, nil, err
	}
	opts := portOptions()
	opts.Context = ctx
	opts.Detect = s.cache
	opts.FuncHashes = hashes
	opts.Workers = workers
	opts.Obs = prov
	rep, err := atomig.Port(clone, opts)
	if err != nil {
		return nil, nil, err
	}
	return clone, rep, nil
}

// cloneSnapshot copies the analyzed snapshot and takes its keys under
// the read lock. The unlock is deferred so that a panic in the copy
// cannot leave the lock held: the recovery poisons the session, which
// takes the write lock.
func (s *session) cloneSnapshot() (*ir.Module, []string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	clone, err := ir.CloneModule(s.snap)
	return clone, s.hashes, err
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
