// Per-op request handlers. Every handler returns a Response; the
// dispatch layer (execute) owns panic containment and error-kind
// mapping, so handlers just do the work and report honestly.
package serve

import (
	"context"
	"errors"
	"os"
	"time"

	"repro/internal/atomig"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/stress"
	"repro/internal/vm"
	"repro/internal/weaken"
)

// opLoad compiles a module into a (new or replaced) session.
func (s *Server) opLoad(ctx context.Context, req *Request) *Response {
	if req.Name == "" {
		return errResp(ErrBadRequest, "load needs a name")
	}
	src, err := readSource(req)
	if err != nil {
		return errResp(ErrBadRequest, "load: %v", err)
	}
	if ctx.Err() != nil {
		return errResp("", "load: %v", ctx.Err())
	}
	sess, err := newSession(req.Name, src, langOf(req.Lang, req.Name), s.opts.Workers, s.opts.Obs)
	if err != nil {
		return errResp(ErrBadRequest, "load: %v", err)
	}
	s.install(req.Session, sess)
	return &Response{OK: true, Module: sess.base.Name, Funcs: len(sess.base.Funcs)}
}

// opEdit applies a delta batch to the session's module.
func (s *Server) opEdit(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	if len(req.Replace) == 0 && len(req.Remove) == 0 {
		return errResp(ErrBadRequest, "edit needs replace or remove entries")
	}
	if ctx.Err() != nil {
		return errResp("", "edit: %v", ctx.Err())
	}
	rebuilt, reused, err := sess.edit(req.Replace, req.Remove)
	if err != nil {
		return errResp(ErrBadRequest, "edit: %v", err)
	}
	s.lg.Event("serve.snapshot_rebuilt").Str("module", sess.name).
		Int("rebuilt", int64(rebuilt)).Int("reused", int64(reused)).Emit()
	return &Response{OK: true, Module: sess.name, Funcs: rebuilt + reused}
}

// opPort runs the incremental pipeline and returns the report (plus the
// ported IR inline with emit, or written to a file with out).
func (s *Server) opPort(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	ported, rep, err := sess.port(ctx, s.opts.Workers, s.opts.Obs)
	if err != nil {
		return portError(err)
	}
	s.c.cacheHits.Add(int64(rep.CacheHits))
	s.c.cacheMiss.Add(int64(rep.CacheMisses))
	s.logCache("port", rep)
	resp := &Response{OK: true, Module: rep.Module, Funcs: len(ported.Funcs), Report: rep}
	if req.Emit || req.Out != "" {
		text := ported.String()
		if req.Out != "" {
			if err := os.WriteFile(req.Out, []byte(text), 0o644); err != nil {
				return errResp(ErrBadRequest, "port: write %s: %v", req.Out, err)
			}
		}
		if req.Emit {
			resp.Text = text
		}
	}
	return resp
}

// opDump renders the session's un-ported module — the input a CLI run
// must port to reproduce the daemon's output byte for byte.
func (s *Server) opDump(req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	text := sess.dumpBase()
	resp := &Response{OK: true, Module: sess.name}
	if req.Out != "" {
		if err := os.WriteFile(req.Out, []byte(text), 0o644); err != nil {
			return errResp(ErrBadRequest, "dump: write %s: %v", req.Out, err)
		}
	} else {
		resp.Text = text
	}
	return resp
}

// opExplain runs the race detector over the un-ported module and maps
// each race to the location the port should promote.
func (s *Server) opExplain(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	if len(req.Entries) == 0 {
		return errResp(ErrBadRequest, "explain-races needs entries")
	}
	m, err := sess.cloneBase()
	if err != nil {
		return errResp("", "explain-races: %v", err)
	}
	if ctx.Err() != nil {
		return errResp("", "explain-races: %v", ctx.Err())
	}
	res, err := stress.Sweep(m, stress.Options{
		Model:    memmodel.ModelWMM,
		Entries:  req.Entries,
		Seeds:    4,
		BaseSeed: 1,
		Sample:   1,
		MaxSteps: vm.DefaultMaxSteps,
		Workers:  s.opts.Workers,
		Obs:      s.opts.Obs,
	})
	if err != nil {
		return errResp(ErrBadRequest, "explain-races: %v", err)
	}
	return &Response{
		OK:         true,
		Races:      res.Detector.Races(),
		Executions: res.Schedules,
		Violations: res.Violations(),
		Text:       atomig.ExplainRaces(m, res.Races()).String(),
	}
}

// opVerify ports the module (incrementally) and model-checks the result under
// the request's budgets, reusing mc's three-valued verdict: pass,
// fail/race, or unknown with the stop reason when a budget ran out.
func (s *Server) opVerify(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	if len(req.Entries) == 0 {
		return errResp(ErrBadRequest, "verify needs entries")
	}
	ported, rep, err := sess.port(ctx, s.opts.Workers, s.opts.Obs)
	if err != nil {
		return portError(err)
	}
	s.c.cacheHits.Add(int64(rep.CacheHits))
	s.c.cacheMiss.Add(int64(rep.CacheMisses))
	s.logCache("verify", rep)
	opts := mc.Options{
		Model:         memmodel.ModelWMM,
		Entries:       req.Entries,
		Context:       ctx,
		MaxExecutions: req.MaxExecs,
		DetectRaces:   true,
		Workers:       s.opts.Workers,
		Obs:           s.opts.Obs,
	}
	if req.TimeBudgetMS > 0 {
		opts.TimeBudget = time.Duration(req.TimeBudgetMS) * time.Millisecond
	}
	res, err := mc.Check(ported, opts)
	if err != nil {
		return errResp(ErrBadRequest, "verify: %v", err)
	}
	return &Response{
		OK:         true,
		Module:     rep.Module,
		Report:     rep,
		Verdict:    res.Verdict.String(),
		Reason:     res.Reason,
		Violations: res.Violations,
		Races:      len(res.Races),
		Executions: res.Executions,
	}
}

// opStress ports the module (incrementally) and runs the schedule-fuzzing
// stress sweep on the result (internal/stress): the plain-execution
// fast path, every scheduler mode x Seeds schedules, the detector
// sampling Sample of the plain locations. The verdict is a witness —
// "pass" here means the sweep was clean, not that the program is.
func (s *Server) opStress(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	if len(req.Entries) == 0 {
		return errResp(ErrBadRequest, "stress needs entries")
	}
	ported, rep, err := sess.port(ctx, s.opts.Workers, s.opts.Obs)
	if err != nil {
		return portError(err)
	}
	s.c.cacheHits.Add(int64(rep.CacheHits))
	s.c.cacheMiss.Add(int64(rep.CacheMisses))
	s.logCache("stress", rep)
	res, err := stress.Sweep(ported, stress.Options{
		Model:   memmodel.ModelWMM,
		Entries: req.Entries,
		Seeds:   req.Seeds,
		Sample:  req.Sample,
		Workers: s.opts.Workers,
		Context: ctx,
		Obs:     s.opts.Obs,
	})
	if err != nil {
		return errResp(ErrBadRequest, "stress: %v", err)
	}
	info := &StressInfo{
		Schedules:   res.Schedules,
		Steps:       res.Steps,
		StepLimited: res.StepLimited,
		Forwarded:   res.Forwarded,
		Skipped:     res.Skipped,
	}
	if sec := res.Elapsed.Seconds(); sec > 0 {
		info.RatePerSec = float64(res.Schedules) / sec
	}
	for _, f := range res.Findings {
		info.Findings = append(info.Findings, f.String())
	}
	verdict := "pass"
	switch {
	case len(res.Violations()) > 0:
		verdict = "violated"
	case res.Detector.Races() > 0:
		verdict = "racy"
	}
	return &Response{
		OK:         true,
		Module:     rep.Module,
		Report:     rep,
		Verdict:    verdict,
		Violations: res.Violations(),
		Races:      res.Detector.Races(),
		Executions: res.Schedules,
		Stress:     info,
	}
}

// opOptimize ports the module (incrementally) and runs the checker-in-
// the-loop weakening optimizer on the ported clone (internal/weaken).
// The session memoizes the result per options for the current snapshot
// — a repeat request replays it with replayed=true. The port inside it
// shares the session's detection summaries with plain ports: weakening
// options never change what detection computes.
func (s *Server) opOptimize(ctx context.Context, req *Request, sess *session) *Response {
	if sess == nil {
		return errResp(ErrNoModule, "no module loaded in session %q", sessionName(req))
	}
	if len(req.Entries) == 0 {
		return errResp(ErrBadRequest, "optimize needs entries")
	}
	wopts := weaken.DefaultOptions(req.Entries)
	wopts.Arch = req.Arch
	wopts.DetectRaces = !req.NoRaces
	wopts.MaxExecs = req.MaxExecs
	if req.Oracle != "" {
		oracle, err := weaken.ParseOracleMode(req.Oracle)
		if err != nil {
			return errResp(ErrBadRequest, "optimize: %v", err)
		}
		wopts.Oracle = oracle
		wopts.StressSeeds = req.Seeds
		wopts.StressSample = req.Sample
	}
	if req.TimeBudgetMS > 0 {
		wopts.TimeBudget = time.Duration(req.TimeBudgetMS) * time.Millisecond
	}
	if _, err := weaken.Arch(req.Arch); err != nil {
		return errResp(ErrBadRequest, "optimize: %v", err)
	}
	res, rep, text, replayed, err := sess.optimize(ctx, s.opts.Workers, s.opts.Obs, wopts)
	if err != nil {
		return portError(err)
	}
	if rep != nil && !replayed {
		s.c.cacheHits.Add(int64(rep.CacheHits))
		s.c.cacheMiss.Add(int64(rep.CacheMisses))
		s.logCache("optimize", rep)
	}
	// The memo decision — replayed the session's memoized result vs
	// re-ran the checker — is operational state worth a log line.
	s.lg.Event("serve.optimize_memoized").
		Str("module", res.Module).Bool("replayed", replayed).Emit()
	resp := &Response{
		OK: true, Module: res.Module, Report: rep,
		Verdict: res.Verdict, Reason: res.Reason,
		Optimize: res, Replayed: replayed,
	}
	if req.Emit || req.Out != "" {
		if req.Out != "" {
			if err := os.WriteFile(req.Out, []byte(text), 0o644); err != nil {
				return errResp(ErrBadRequest, "optimize: write %s: %v", req.Out, err)
			}
		}
		if req.Emit {
			resp.Text = text
		}
	}
	return resp
}

// logCache emits the summary outcome of one session port — the
// incremental-analysis signal (all hits = warm replay).
func (s *Server) logCache(op string, rep *atomig.Report) {
	s.lg.Event("serve.cache_consulted").
		Str("op", op).Str("module", rep.Module).
		Int("hits", int64(rep.CacheHits)).Int("misses", int64(rep.CacheMisses)).Emit()
}

// opStats snapshots the server counters; it doubles as the health
// check (healthy = accepting work).
func (s *Server) opStats() *Response {
	st := &Stats{
		Healthy:         !s.draining.Load(),
		Status:          s.health().Status,
		Draining:        s.draining.Load(),
		InFlight:        s.live.Load(),
		QueueDepth:      s.opts.QueueDepth,
		Requests:        s.c.requests.Value(),
		Failed:          s.c.failed.Value(),
		Overloaded:      s.c.overloaded.Value(),
		Canceled:        s.c.canceled.Value(),
		Deadlined:       s.c.deadlined.Value(),
		PanicsContained: s.c.panics.Value(),
		WatchdogFired:   s.c.watchdog.Value(),
		CacheHits:       s.c.cacheHits.Value(),
		CacheMisses:     s.c.cacheMiss.Value(),
		Sessions:        s.sessionNames(),
	}
	s.mu.Lock()
	for _, sess := range s.sessions {
		st.CacheEntries += sess.filled()
	}
	s.mu.Unlock()
	return &Response{OK: true, Stats: st}
}

// sessionName echoes the addressed session for error messages.
func sessionName(req *Request) string {
	if req.Session == "" {
		return "default"
	}
	return req.Session
}

// portError classifies a pipeline failure: cancellation surfaces as
// the typed deadline/cancel kind (the dispatch layer refines it from
// the context), everything else as an internal engine error — the
// port ran on a clone, so the session itself is intact either way.
func portError(err error) *Response {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return errResp("", "port: %v", err)
	}
	return errResp(ErrInternal, "port: %v", err)
}
