// Session state: each named session owns one module and its
// incremental-analysis companion state. The base module is the
// un-ported truth (what dump renders and edits replace functions in);
// the analyzed snapshot holds base's functions pre-inlined, and beside
// it the session keeps one detection summary slot per snapshot
// function. Ports run the pipeline on the snapshot with inlining off
// (atomig.PortShared), which performs the exact mutation sequence the
// CLI's inline-then-analyze port performs on copies of the functions it
// writes — so daemon output is byte-identical to `atomig -j 1` on the
// dumped module (the conformance contract, tested in serve_test.go).
//
// An edit costs what it changes: the next base shares every function
// but the batch's with the current one, and the next snapshot every
// function the edit cannot have changed; only the changed functions are
// verified and re-inlined, and only their summary slots are emptied.
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

	// mu guards the pointers below: mutations (edit, poison, a port's
	// publication) replace them under the write lock, and queries (port,
	// dump, explain, verify) read them under the read lock and port,
	// sweep or render what they read after releasing it.
	mu sync.RWMutex

	// base, snap and sums are replaced, never mutated, once published:
	// later versions and ports share their functions, and a port fills
	// its own copy of sums. A slot describes its snapshot function for
	// as long as the function is not rebuilt: deltas change functions
	// only (structs and globals change by reload, which builds a new
	// session), and every port runs with portOptions.
	base *ir.Module            // un-ported truth
	snap *ir.Module            // analyzed snapshot: base's functions, inlined
	sums []*atomig.FuncSummary // detection summary per snap.Funcs; nil until a port fills it

	// gen moves on every rebuild and every poison. A port publishes the
	// slots it filled, and optimize its memo, only if gen has not moved
	// since the port read the snapshot.
	gen uint64

	// uses holds, per function of base, the names it calls or references:
	// the edges dependents walks, kept so that an edit reads only the
	// functions it changes.
	uses map[string][]string

	// opt memoizes the last optimize result of the current snapshot,
	// keyed by the request's weakening configuration
	// (weaken.Options.Salt); an option flip misses, and rebuild and
	// poison drop it. The summaries need no such key: they describe the
	// un-weakened snapshot, and weakening runs on a copy of the port
	// (TestOptimizeSaltFlip).
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
	if lang == "c" {
		// Give the instructions dump leaves unnamed the IDs a parse of the
		// dump gives them, so the inliner names blocks and numbers
		// registers as it does for `atomig` on the dump.
		for _, f := range m.Funcs {
			f.NumberUnnamed()
		}
	}
	s := &session{name: name, uses: make(map[string][]string)}
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
// re-inlined and their summary slots left empty, every other function
// and its slot is carried over from the current snapshot. changed must
// hold every function of base whose inlined body can differ from the
// current snapshot's: the edited ones and all that transitively call or
// reference them (see dependents). Each re-inlined function is verified
// against the new snapshot, since ports share the snapshot's functions
// and verify only what they copy; an inliner fault panics, and the
// request that built the function answers internal. Nothing is
// published until all of it is built, so a panic leaves the session as
// it was. It moves the generation and drops the optimize memo. Called
// under the write lock (or before publication); returns how many
// functions it rebuilt.
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
	analysis.Inline(scratch)

	// The changed functions come from the scratch module, the others
	// from the current snapshot, in base order.
	funcs := make([]*ir.Func, len(base.Funcs))
	var fresh []*ir.Func
	for i, f := range base.Funcs {
		if changed[f.Name] {
			funcs[i] = scratch.Func(f.Name)
			fresh = append(fresh, funcs[i])
		} else {
			funcs[i] = s.snap.Func(f.Name)
		}
	}
	snap := base.Derive(funcs)
	for _, f := range fresh {
		if err := ir.VerifyFunc(snap, f); err != nil {
			panic(fmt.Sprintf("serve: inlining left the snapshot invalid: %v", err))
		}
	}

	prev := make(map[string]*atomig.FuncSummary)
	for i, sum := range s.sums {
		if sum != nil {
			prev[s.snap.Funcs[i].Name] = sum
		}
	}
	sums := make([]*atomig.FuncSummary, len(snap.Funcs))
	for i, f := range snap.Funcs {
		if !changed[f.Name] {
			sums[i] = prev[f.Name]
		}
	}
	s.base, s.snap, s.sums = base, snap, sums
	s.gen++
	s.opt = nil
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

	// Only the batch is copied: calls and references name their
	// targets, so the shared functions refer to the batch's by name.
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
// copies callees into callers, and a call or reference must still match
// the function that replaces its target. Edges out of the named
// functions add nothing, so the set is the same before and after an
// edit of them.
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
				out = append(out, r.Name)
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

// port runs the pipeline on the analyzed snapshot under ctx
// (atomig.PortShared, which copies only the functions it writes),
// replaying the filled summary slots and filling the empty ones in a
// copy of the slots. The snapshot, the slots and the generation are
// read under the read lock and the port runs after releasing it:
// published versions are never written, so concurrent ports proceed in
// parallel and edits order cleanly between them. The filled copy is
// published only if no rebuild or poison came in between. The ported
// module shares functions with the snapshot, so callers only read it.
func (s *session) port(ctx context.Context, workers int, prov *obs.Provider) (*ir.Module, *atomig.Report, error) {
	s.mu.RLock()
	snap, sums, gen := s.snap, slices.Clone(s.sums), s.gen
	s.mu.RUnlock()
	opts := portOptions()
	opts.Context = ctx
	opts.Summaries = sums
	opts.Workers = workers
	opts.Obs = prov
	ported, rep, err := atomig.PortShared(snap, opts)
	if err != nil {
		return nil, nil, err
	}
	if rep.CacheMisses > 0 {
		s.mu.Lock()
		if s.gen == gen {
			s.sums = sums
		}
		s.mu.Unlock()
	}
	return ported, rep, nil
}

// optimize ports the session and runs the weakening optimizer on a
// private copy of the port, since weakening writes the module it is
// given and the port shares functions with the snapshot. The result is
// memoized per configuration for the current snapshot — a repeat
// request with the same options on an unedited module replays it
// (replayed=true) without re-running the checker. wopts carries the
// request's weakening options; Workers/Context/Obs are overridden with
// the server's.
func (s *session) optimize(ctx context.Context, workers int, prov *obs.Provider, wopts weaken.Options) (res *weaken.Result, rep *atomig.Report, text string, replayed bool, err error) {
	key := wopts.Salt()
	s.mu.RLock()
	gen := s.gen
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
	weakened, res, err := weaken.OptimizeClone(ported, wopts)
	if err != nil {
		return nil, nil, "", false, err
	}
	text = weakened.String()

	// Publish the memo only if the snapshot it was computed from is
	// still current: gen was read before the port read the snapshot,
	// so an edit or poison racing this request moved it — serve the
	// response, drop the memo.
	s.mu.Lock()
	if s.gen == gen {
		s.opt = &optMemo{key: key, res: res, rep: rep, text: text}
	}
	s.mu.Unlock()
	return res, rep, text, false, nil
}

// dumpBase renders the un-ported module (the CLI-equivalence input).
func (s *session) dumpBase() string {
	return s.current().String()
}

// current returns the published un-ported module. It is read under the
// read lock and never mutated, so callers render or sweep it unlocked.
func (s *session) current() *ir.Module {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// poison empties every summary slot, drops the optimize memo and moves
// the generation, so no port or optimize in flight publishes either.
// Called after a contained panic anywhere in a request touching this
// session: a summary may have been computed from corrupted state, and
// correctness must never depend on what the slots hold.
func (s *session) poison() {
	s.mu.Lock()
	s.sums = make([]*atomig.FuncSummary, len(s.snap.Funcs))
	s.opt = nil
	s.gen++
	s.mu.Unlock()
}

// filled counts the summary slots a port has filled.
func (s *session) filled() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, sum := range s.sums {
		if sum != nil {
			n++
		}
	}
	return n
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
