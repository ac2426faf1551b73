package mc

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/vm"
)

// The engine splits the depth-first frontier across a worker pool. A
// work unit is an exploration fragment: a prepared choice trace plus a
// floor (see dfs.seed). The queue starts with one fragment — the whole
// tree, or the fragments of the resume tokens — and grows by donation:
// a worker that notices starved peers splits the shallowest unexplored
// alternatives off its own frontier (dfs.split) and queues them. A
// single worker has no peers, never donates, and so walks the plain
// depth-first search. Workers share the lock-striped visited cache;
// every other piece of mutable state (VM, replay controller, race
// detector, findings) is worker-private and merged deterministically
// after the pool drains.

// unit is one frontier fragment awaiting a worker.
type unit struct {
	trace []choice
	floor int
}

// workQueue distributes fragments and detects termination: pending
// counts fragments queued or owned by a worker, and the queue closes
// when it reaches zero (every fragment fully explored) or on a global
// stop.
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	units   []unit
	pending int
	waiting int
	closed  bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) put(u unit) {
	q.mu.Lock()
	q.pending++
	q.units = append(q.units, u)
	q.mu.Unlock()
	q.cond.Signal()
}

// get blocks until a fragment is available or the queue closes.
func (q *workQueue) get() (unit, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.units) == 0 && !q.closed {
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
	if q.closed {
		// Leftover fragments after a global stop are drained into resume
		// tokens by the coordinator, not started.
		return unit{}, false
	}
	u := q.units[len(q.units)-1]
	q.units = q.units[:len(q.units)-1]
	return u, true
}

// finish retires one owned fragment; the last one closes the queue.
func (q *workQueue) finish() {
	q.mu.Lock()
	q.pending--
	done := q.pending == 0
	if done {
		q.closed = true
	}
	q.mu.Unlock()
	if done {
		q.cond.Broadcast()
	}
}

// close wakes all waiters during a global stop.
func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// starving reports whether a peer is blocked on an empty queue — the
// signal to donate a frontier split.
func (q *workQueue) starving() bool {
	q.mu.Lock()
	s := q.waiting > 0 && len(q.units) == 0 && !q.closed
	q.mu.Unlock()
	return s
}

// drain removes and returns the undistributed fragments (global stop).
func (q *workQueue) drain() []unit {
	q.mu.Lock()
	us := q.units
	q.units = nil
	q.mu.Unlock()
	return us
}

// vioRec ties a finding to the choice trace that exposed it; key is the
// order-preserving encoding of the taken sequence, so comparing keys
// compares depth-first discovery order.
type vioRec struct {
	msg   string
	key   string
	trace []choice
}

// traceKey encodes the taken sequence order-preservingly (4-byte
// big-endian per choice).
func traceKey(tr []choice) string {
	b := make([]byte, 0, len(tr)*4)
	for _, c := range tr {
		b = append(b, byte(c.taken>>24), byte(c.taken>>16), byte(c.taken>>8), byte(c.taken))
	}
	return string(b)
}

// note records rec in m under msg-or-key semantics: keep the record
// with the smallest trace key per identity.
func note(m map[string]*vioRec, id, msg string, d *dfs) {
	key := traceKey(d.trace)
	if ex := m[id]; ex != nil && ex.key <= key {
		return
	}
	m[id] = &vioRec{msg: msg, key: key, trace: append([]choice(nil), d.trace...)}
}

// mcWorker is the per-worker state surviving into the merge.
type mcWorker struct {
	det *race.Detector
	// track is the worker's trace timeline (nil when tracing is off):
	// one mc.worker lifecycle span holding an mc.fragment span per
	// claimed fragment, with donation instants in between.
	track *obs.Track
	vios  map[string]*vioRec // violation message → earliest exposing trace
	wits  map[string]*vioRec // race key → earliest exposing trace
	// tokens holds the worker's unexplored remainder when a global stop
	// interrupted it mid-fragment.
	tokens  []*ResumeToken
	err     error
	corrupt bool
}

// engine is the shared coordination state of one check.
type engine struct {
	m    *ir.Module
	opts Options

	q       *workQueue
	visited *shardMap

	stop     atomic.Bool
	reasonMu sync.Mutex
	reason   string

	// c holds the shared exploration counters (registry metrics); base
	// is the baseline for this check's Result deltas.
	c    *mcCounters
	base mcBase

	deadline time.Time
	maxExecs int64

	workers []*mcWorker
}

// halt requests a global stop; the first reason wins.
func (e *engine) halt(reason string) {
	e.reasonMu.Lock()
	if e.reason == "" {
		e.reason = reason
	}
	e.reasonMu.Unlock()
	e.stop.Store(true)
	e.q.close()
}

// fragmentToken captures a controller's unexplored remainder.
func fragmentToken(d *dfs) *ResumeToken {
	return &ResumeToken{trace: append([]choice(nil), d.trace...), floor: d.floor}
}

// run is one worker's loop: claim a fragment, explore it depth-first
// with a private reused VM, donate splits when peers starve. The whole
// loop runs inside an mc.worker span on the worker's timeline, so the
// trace viewer shows each worker's lifetime even when it never claims
// a fragment.
func (e *engine) run(w *mcWorker) {
	e.c.active.Add(1)
	defer e.c.active.Add(-1)
	ws := w.track.Begin("mc.worker")
	defer ws.End()
	d := &dfs{}
	var v *vm.VM
	newExec := func() (*vm.VM, error) {
		if w.det != nil {
			w.det.BeginExec()
		}
		if v == nil {
			vopts := vm.Options{
				Model:      e.opts.Model,
				Entries:    e.opts.Entries,
				Controller: d,
				MaxSteps:   e.opts.MaxStepsPerExec,
			}
			if w.det != nil {
				vopts.Hook = w.det
			}
			nv, err := vm.New(e.m, vopts)
			if err != nil {
				return nil, err
			}
			v = nv
			e.c.vmAllocs.Inc()
			return v, nil
		}
		e.c.vmResets.Inc()
		return v, v.Reset()
	}
	for {
		u, ok := e.q.get()
		if !ok {
			return
		}
		d.seed(u.trace, u.floor)
		if e.exploreFragment(w, d, newExec) {
			return
		}
		e.q.finish()
	}
}

// exploreFragment explores one claimed fragment to exhaustion (false)
// or until the worker must exit (true: global stop, error, corrupt
// token). The fragment gets a span on the worker's timeline carrying
// its execution count, which also feeds the mc.fragment_executions
// histogram — the donation-balance signal.
func (e *engine) exploreFragment(w *mcWorker, d *dfs, newExec func() (*vm.VM, error)) (exit bool) {
	e.c.fragsClaim.Inc()
	var execs int64
	fs := w.track.Begin("mc.fragment")
	defer func() {
		e.c.fragExecs.Observe(execs)
		fs.Arg("executions", execs).End()
	}()
	for {
		if e.stop.Load() {
			w.tokens = append(w.tokens, fragmentToken(d))
			return true
		}
		switch {
		case e.opts.Context != nil && e.opts.Context.Err() != nil:
			e.halt("canceled")
			continue
		case time.Now().After(e.deadline):
			e.halt("time budget exhausted")
			continue
		}
		if e.c.execs.AddGet(1)-e.base.execs > e.maxExecs {
			e.c.execs.Add(-1)
			e.halt("execution budget exhausted")
			continue
		}
		execs++
		v, err := newExec()
		if err != nil {
			w.err = err
			e.halt("internal error")
			return true
		}
		violated, truncated, pruned := runOne(v, d, e.visited, w.det)
		if d.corrupt {
			w.corrupt = true
			e.halt("corrupt resume token")
			return true
		}
		if pruned {
			e.c.pruned.Inc()
		}
		if truncated {
			e.c.truncated.Inc()
		}
		if violated != "" {
			note(w.vios, violated, violated, d)
			if e.opts.StopAtFirst {
				e.halt("stopped at violation")
				return true
			}
		}
		if w.det != nil && w.det.ExecFoundNew() {
			for _, r := range w.det.ExecNewReports() {
				note(w.wits, r.Key(), "data race: "+r.Loc.String(), d)
			}
			if e.opts.StopAtFirst && violated == "" {
				e.halt("stopped at race")
				return true
			}
		}
		if e.q.starving() {
			if du, ok := d.split(); ok {
				e.q.put(du)
				e.c.fragsDonat.Inc()
				w.track.Instant("mc.fragment_donated")
			}
		}
		if !d.backtrack() {
			return false
		}
		e.c.backtracks.Inc()
	}
}

// explore is the frontier-split engine behind Check; opts carries its
// defaults already. Determinism: on a fully explored state space the set of reachable (memory, happens-before)
// states is a property of the program, not of the worker schedule, so
// the verdict, the deduplicated violation messages and the race-report
// keys are identical for every worker count. Counterexample traces may
// legitimately differ across worker counts (a message's earliest
// *explored* witness depends on which equivalent branch the visited
// cache pruned); each trace still reproduces its violation exactly.
func explore(m *ir.Module, opts Options) (res *Result, err error) {
	workers := opts.Workers
	start := time.Now()
	res = &Result{Workers: workers}

	c := newMCCounters(opts.Obs.RegistryOrNew())
	e := &engine{
		m:        m,
		opts:     opts,
		q:        newWorkQueue(),
		visited:  newShardMap(workers, c.contended),
		c:        c,
		base:     c.baseline(),
		deadline: start.Add(opts.TimeBudget),
		maxExecs: int64(opts.MaxExecutions),
	}

	// Carry over resumed state: counters and findings continue, and the
	// visited cache is copied (never adopted — tokens stay reusable).
	carriedVios := make([]string, 0)
	carriedCEs := make([]Counterexample, 0)
	for _, t := range opts.Resume {
		c.execs.Add(int64(t.executions))
		c.pruned.Add(int64(t.pruned))
		c.truncated.Add(int64(t.truncated))
		carriedVios = append(carriedVios, t.violations...)
		carriedCEs = append(carriedCEs, t.counterexamples...)
		for h := range t.visited {
			e.visited.insert(h)
		}
		e.q.put(unit{trace: append([]choice(nil), t.trace...), floor: t.floor})
	}
	if len(opts.Resume) == 0 {
		e.q.put(unit{})
	}

	resolvedRaceMax := opts.MaxRaceReports
	if resolvedRaceMax == 0 {
		resolvedRaceMax = 32
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &mcWorker{
			track: opts.Obs.Track(fmt.Sprintf("mc.worker-%02d", i)),
			vios:  make(map[string]*vioRec),
			wits:  make(map[string]*vioRec),
		}
		if opts.DetectRaces {
			// Per-worker caps are generous; the deterministic cap applies
			// at the merge.
			w.det = race.New(opts.Model, race.Options{MaxReports: 4 * resolvedRaceMax, Obs: opts.Obs})
		}
		e.workers = append(e.workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic on a worker goroutine would be unrecoverable for
			// Check's diag guard (which lives on the calling goroutine)
			// and kill the process. Contain it here: record a structured
			// error and halt the queue, so blocked peers wake up and the
			// pool drains instead of deadlocking.
			defer func() {
				if r := recover(); r != nil {
					w.err = &diag.InternalError{
						Stage: "mc.worker", Value: r, Stack: string(debug.Stack()),
					}
					e.halt("internal error")
				}
			}()
			e.run(w)
		}()
	}
	wg.Wait()

	// ---- Deterministic merge (single-threaded from here on). ----
	for _, w := range e.workers {
		if w.corrupt {
			return nil, fmt.Errorf("mc: resume token does not match this program, model, or harness")
		}
		if w.err != nil {
			return nil, w.err
		}
	}

	vios := make(map[string]*vioRec)
	wits := make(map[string]*vioRec)
	for _, w := range e.workers {
		for id, r := range w.vios {
			if ex := vios[id]; ex == nil || r.key < ex.key {
				vios[id] = r
			}
		}
		for id, r := range w.wits {
			if ex := wits[id]; ex == nil || r.key < ex.key {
				wits[id] = r
			}
		}
	}

	// Violations: carried-over findings first (already reported in a
	// previous run's order), then the new distinct messages sorted.
	seenMsg := make(map[string]bool)
	for _, msg := range carriedVios {
		if !seenMsg[msg] {
			seenMsg[msg] = true
			res.Violations = append(res.Violations, msg)
		}
	}
	res.Counterexamples = append(res.Counterexamples, carriedCEs...)
	msgs := make([]string, 0, len(vios))
	for msg := range vios {
		if !seenMsg[msg] {
			msgs = append(msgs, msg)
		}
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		if len(res.Violations) >= maxReports {
			break
		}
		res.Violations = append(res.Violations, msg)
		if opts.Traces {
			res.Counterexamples = append(res.Counterexamples, Counterexample{
				Msg:    msg,
				Events: replayTrace(m, opts, &dfs{trace: vios[msg].trace}),
			})
		}
	}

	// Races: merge the per-worker detectors' reports by site-pair key.
	if opts.DetectRaces {
		lists := make([][]*race.Report, 0, len(e.workers))
		for _, w := range e.workers {
			lists = append(lists, w.det.Reports())
		}
		res.Races = race.MergeReports(resolvedRaceMax, lists...)
		if opts.Traces {
			keys := make([]string, 0, len(wits))
			for k := range wits {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if len(res.RaceWitnesses) >= maxReports {
					break
				}
				res.RaceWitnesses = append(res.RaceWitnesses, Counterexample{
					Msg:    wits[k].msg,
					Events: replayTrace(m, opts, &dfs{trace: wits[k].trace}),
				})
			}
		}
	}

	c.states.Add(int64(e.visited.size()))
	c.fill(res, e.base)
	res.States = e.visited.size()
	res.Elapsed = time.Since(start)

	e.reasonMu.Lock()
	stopped := e.reason
	e.reasonMu.Unlock()
	fullyExplored := stopped == ""

	// Remaining frontier: interrupted workers' remainders plus the
	// fragments the stop left in the queue.
	var rem []*ResumeToken
	for _, w := range e.workers {
		rem = append(rem, w.tokens...)
	}
	for _, u := range e.q.drain() {
		rem = append(rem, &ResumeToken{trace: u.trace, floor: u.floor})
	}
	for _, t := range rem {
		res.Frontier += t.Frontier()
	}

	switch {
	case len(res.Violations) > 0:
		res.Verdict = VerdictFail
	case len(res.Races) > 0:
		res.Verdict = VerdictRace
	case fullyExplored && res.Truncated == 0:
		res.Verdict = VerdictPass
	default:
		res.Verdict = VerdictUnknown
		if stopped == "" {
			stopped = "step-truncated executions"
		}
	}
	if res.Verdict == VerdictUnknown || res.Verdict == VerdictFail {
		res.Reason = stopped
	}

	// Budget and cancellation stops leave a resumable frontier; verdict
	// stops (violation, race) are final and get no tokens.
	resumable := stopped == "time budget exhausted" ||
		stopped == "execution budget exhausted" || stopped == "canceled"
	if resumable && len(rem) > 0 {
		// All fragments share one flattened visited snapshot (tokens are
		// copy-on-resume, so sharing is safe), and the first token carries
		// the global counters and findings so resumed statistics continue;
		// resuming the full token set in one Check double-counts nothing.
		vis := e.visited.flatten()
		rem[0].visited = vis
		rem[0].executions = res.Executions
		rem[0].pruned = res.Pruned
		rem[0].truncated = res.Truncated
		rem[0].violations = append([]string(nil), res.Violations...)
		rem[0].counterexamples = append([]Counterexample(nil), res.Counterexamples...)
		for _, t := range rem[1:] {
			t.visited = vis
		}
		res.Resume = rem
	}
	return res, nil
}
