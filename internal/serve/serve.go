// Package serve implements the crash-safe incremental porting daemon
// behind `atomig -serve`: a long-lived process that holds modules in
// named sessions, accepts function-level deltas, and answers port /
// explain-races / verify queries concurrently over a line-delimited
// JSON protocol (stdin/stdout and a Unix socket).
//
// The three load-bearing properties (docs/SERVE.md):
//
//   - Incremental analysis: a session keeps one detection summary per
//     snapshot function (atomig.Options.Summaries), and an edit drops
//     the summaries of exactly the functions it rebuilds, so a
//     one-function edit re-analyzes one function and replays the rest.
//   - Per-request robustness: every request runs under a context
//     deadline with a watchdog behind it, wrapped in panic
//     containment — a crashing request returns a structured error and
//     drops the session's (possibly poisoned) summaries; the daemon
//     lives on.
//   - Service lifecycle: a bounded admission queue sheds load with a
//     typed `overloaded` response, shutdown drains in-flight work,
//     and health/stats report the serve.* metrics.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds concurrently admitted requests (in-flight and
	// queued); excess requests get an immediate `overloaded` response.
	// 0 selects 8.
	QueueDepth int
	// Deadline is the default per-request wall-clock budget (0 = 30s).
	// Requests may shorten it (DeadlineMS) but never extend it.
	Deadline time.Duration
	// Grace is how long past its deadline a request may run before the
	// watchdog declares it wedged, answers on its behalf, and counts
	// serve.watchdog_fired (0 = 2s).
	Grace time.Duration
	// Workers is the pipeline fan-out per port request (0 = 1).
	Workers int
	// Obs, when non-nil, backs the serve.* metrics and request spans.
	Obs *obs.Provider
	// CrashPath, when non-empty, is where the flight recorder dumps its
	// event tail when the watchdog fires, a panic is contained, or load
	// is shed (overload dumps are throttled to one per second).
	CrashPath string
}

const (
	// troubleWindow is how long after a shed request or missed deadline
	// /healthz keeps reporting degraded.
	troubleWindow = 10 * time.Second
	// flightRecords bounds the flight recorder's in-memory event tail.
	flightRecords = 1024
)

// Server is one daemon instance. It may serve several connections
// (stdio and a Unix socket) concurrently; sessions are server-global.
type Server struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*session

	// slots is the admission semaphore; each token is a slot index
	// whose obs track carries that slot's request spans.
	slots    chan int
	inflight sync.WaitGroup
	live     atomic.Int64
	draining atomic.Bool

	// quit closes when a shutdown request commits; listeners stop
	// accepting and Wait returns after the drain.
	quit     chan struct{}
	quitOnce sync.Once

	// cancels maps in-flight request ids to their cancel functions.
	cancelMu sync.Mutex
	cancels  map[string]context.CancelFunc

	c serveCounters

	// opDur holds the per-op latency histograms, keyed by wire op name.
	opDur map[string]*obs.Histogram

	// lg/rec are the structured event log and the flight recorder. lg is
	// never nil (a recorder-only logger is built when the provider has
	// none), so handle() emits unconditionally; rec holds the bounded
	// tail the crash paths dump.
	lg  *obs.Logger
	rec *obs.Recorder

	// reqSeq numbers admitted requests: the server-generated rid
	// ("r000042") that threads one request's spans, log events, and
	// flight-recorder tail together even when the client sent no id.
	reqSeq atomic.Int64

	// troubleNS is the wall clock (UnixNano) of the last shed request or
	// missed deadline; health() reports degraded within troubleWindow.
	troubleNS atomic.Int64

	// dumpMu serializes crash-file writes; lastDumpNS throttles
	// overload-triggered dumps.
	dumpMu     sync.Mutex
	lastDumpNS int64

	// httpWG joins the -http listener's goroutines into Drain.
	httpWG sync.WaitGroup

	// faultInject, when non-nil, runs at the top of every execute with
	// the request's context — the chaos test's seam for injected
	// panics, stalls, and wedges. Never set in production.
	faultInject func(ctx context.Context, req *Request)
}

// serveCounters are the serve.* registry metrics (docs/OBSERVABILITY.md).
type serveCounters struct {
	requests   *obs.Counter
	ok         *obs.Counter
	failed     *obs.Counter
	overloaded *obs.Counter
	canceled   *obs.Counter
	deadlined  *obs.Counter
	panics     *obs.Counter
	watchdog   *obs.Counter
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	inflight   *obs.Gauge
	durationMS *obs.Histogram
	dumps      *obs.Counter
}

// New builds a Server. Fields of opts are defaulted in place.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 30 * time.Second
	}
	if opts.Grace <= 0 {
		opts.Grace = 2 * time.Second
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Obs == nil {
		// stats/health must work even when no exporter is wired: back
		// the serve.* counters with a private in-memory registry.
		opts.Obs = obs.New()
	}
	s := &Server{
		opts:     opts,
		sessions: make(map[string]*session),
		slots:    make(chan int, opts.QueueDepth),
		quit:     make(chan struct{}),
		cancels:  make(map[string]context.CancelFunc),
	}
	for i := 0; i < opts.QueueDepth; i++ {
		s.slots <- i
	}
	p := opts.Obs
	s.c = serveCounters{
		requests:   p.Counter("serve.requests_total"),
		ok:         p.Counter("serve.requests_ok"),
		failed:     p.Counter("serve.requests_failed"),
		overloaded: p.Counter("serve.requests_overloaded"),
		canceled:   p.Counter("serve.requests_canceled"),
		deadlined:  p.Counter("serve.requests_deadlined"),
		panics:     p.Counter("serve.panics_contained"),
		watchdog:   p.Counter("serve.watchdog_fired"),
		cacheHits:  p.Counter("serve.cache_hits"),
		cacheMiss:  p.Counter("serve.cache_misses"),
		inflight:   p.Gauge("serve.requests_inflight"),
		durationMS: p.Histogram("serve.request_ms"),
		dumps:      p.Counter("serve.flight_dumps_written"),
	}
	// Per-op latency histograms. Names are spelled out (not built from
	// the wire op) so the catalog drift gate sees them and so
	// "explain-races" maps onto a convention-legal name. cancel and
	// shutdown bypass handle() and have no duration to record.
	s.opDur = map[string]*obs.Histogram{
		"load":          p.Histogram("serve.op_load_duration_micros"),
		"edit":          p.Histogram("serve.op_edit_duration_micros"),
		"port":          p.Histogram("serve.op_port_duration_micros"),
		"dump":          p.Histogram("serve.op_dump_duration_micros"),
		"explain-races": p.Histogram("serve.op_explain_races_duration_micros"),
		"verify":        p.Histogram("serve.op_verify_duration_micros"),
		"stress":        p.Histogram("serve.op_stress_duration_micros"),
		"optimize":      p.Histogram("serve.op_optimize_duration_micros"),
		"stats":         p.Histogram("serve.op_stats_duration_micros"),
		"health":        p.Histogram("serve.op_health_duration_micros"),
	}
	// The flight recorder is always on (its memory is bounded); the
	// event log rides the provider's logger when one is attached
	// (-log), else a recorder-only logger so the crash tail exists
	// regardless of flags. Completed trace spans mirror in too.
	s.rec = obs.NewRecorder(flightRecords)
	s.lg = p.Log()
	if s.lg == nil {
		s.lg = obs.NewLogger(nil)
	}
	s.lg.SetRecorder(s.rec)
	if p.Tracer != nil {
		p.Tracer.MirrorTo(s.lg)
	}
	return s
}

// rid generates the server-side request ID threaded through spans, log
// events, and flight dumps.
func (s *Server) rid() string {
	return fmt.Sprintf("r%06d", s.reqSeq.Add(1))
}

// markTrouble records a degraded-health signal (shed load or a missed
// deadline); /healthz reports degraded for troubleWindow afterwards.
func (s *Server) markTrouble() {
	s.troubleNS.Store(time.Now().UnixNano())
}

// health is the /healthz verdict: draining once shutdown began,
// degraded while the queue is full or within troubleWindow of shed
// load / a missed deadline, ok otherwise.
func (s *Server) health() obs.Health {
	if s.draining.Load() {
		return obs.Health{Status: "draining", Reason: "shutdown in progress"}
	}
	if int(s.live.Load()) >= s.opts.QueueDepth {
		return obs.Health{Status: "degraded", Reason: "admission queue full"}
	}
	if t := s.troubleNS.Load(); t != 0 && time.Since(time.Unix(0, t)) < troubleWindow {
		return obs.Health{Status: "degraded", Reason: "recent overload or deadline miss"}
	}
	return obs.Health{Status: "ok"}
}

// ListenHTTP mounts the live-telemetry surface (obs.Handler: /metrics,
// /metrics.json, /healthz, /debug/pprof) on addr and returns the bound
// address. The listener participates in the daemon's lifecycle: it
// closes when shutdown commits, and Drain waits for its goroutines.
func (s *Server) ListenHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: obs.Handler(s.opts.Obs, s.health)}
	s.httpWG.Add(2)
	go func() {
		defer s.httpWG.Done()
		<-s.quit
		hs.Close()
	}()
	go func() {
		defer s.httpWG.Done()
		// Serve returns ErrServerClosed after the shutdown Close.
		_ = hs.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// dumpFlight writes the flight recorder's tail to the crash file. The
// reason and the triggering request's IDs go into the envelope tags;
// overload dumps are throttled so a shed storm cannot thrash the disk.
func (s *Server) dumpFlight(reason, rid string, req *Request) {
	if s.opts.CrashPath == "" {
		return
	}
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	now := time.Now().UnixNano()
	if reason == "overload" && now-s.lastDumpNS < int64(time.Second) {
		return
	}
	s.lastDumpNS = now
	tags := map[string]string{"op": req.Op}
	if rid != "" {
		tags["rid"] = rid
	}
	if req.ID != "" {
		tags["request_id"] = req.ID
	}
	if err := os.WriteFile(s.opts.CrashPath, s.rec.Dump(reason, tags), 0o644); err == nil {
		s.c.dumps.Inc()
	}
}

// Shutdown begins the drain: admission closes (new requests get a
// shutting_down response), listeners stop accepting. Safe to call
// more than once.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.quitOnce.Do(func() { close(s.quit) })
}

// Done reports the shutdown channel for listener loops.
func (s *Server) Done() <-chan struct{} { return s.quit }

// Drain blocks until every admitted request has finished and the
// -http listener (if mounted) has stopped. Call Shutdown first — the
// listener only stops once the quit channel closes.
func (s *Server) Drain() {
	s.inflight.Wait()
	s.httpWG.Wait()
}

// ServeConn runs the request loop on one connection until EOF or
// shutdown. Responses are written line-buffered under a write mutex;
// they may interleave across requests (clients correlate by id). The
// returned error is the scanner's (nil on clean EOF).
func (s *Server) ServeConn(conn io.ReadWriter) error {
	var wmu sync.Mutex
	out := bufio.NewWriter(conn)
	send := func(r *Response) {
		wmu.Lock()
		defer wmu.Unlock()
		b, err := json.Marshal(r)
		if err != nil {
			// A response that cannot marshal is an internal bug; send a
			// minimal error line so the client is never left hanging.
			b, _ = json.Marshal(&Response{ID: r.ID, ErrKind: ErrInternal, Error: "response marshal failed"})
		}
		out.Write(b)
		out.WriteByte('\n')
		out.Flush()
	}

	// Requests admitted from this connection; the loop waits for them
	// before returning so a closing connection never strands a writer.
	var connWG sync.WaitGroup
	defer connWG.Wait()

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		req, err := decodeRequest(line)
		if err != nil {
			s.c.requests.Inc()
			s.c.failed.Inc()
			r := errResp(ErrBadRequest, "malformed request: %v", err)
			send(r)
			continue
		}
		switch req.Op {
		case "shutdown":
			// Lifecycle op: commit the drain, answer after it completes
			// so a scripted client can `shutdown` and trust the daemon
			// is quiescent when the response arrives.
			s.c.requests.Inc()
			s.Shutdown()
			s.Drain()
			s.c.ok.Inc()
			send(&Response{ID: req.ID, OK: true})
			return nil
		case "cancel":
			// Control op: bypasses admission so a full queue can still
			// be canceled into health.
			s.c.requests.Inc()
			if s.cancelRequest(req.Target) {
				s.c.ok.Inc()
				send(&Response{ID: req.ID, OK: true})
			} else {
				s.c.failed.Inc()
				r := errResp(ErrBadRequest, "no in-flight request %q", req.Target)
				r.ID = req.ID
				send(r)
			}
			continue
		}
		if s.draining.Load() {
			s.c.requests.Inc()
			s.c.failed.Inc()
			r := errResp(ErrShutdown, "server is draining")
			r.ID = req.ID
			send(r)
			continue
		}
		// Admission control: take a slot or shed the request now. A shed
		// marks health degraded and dumps the flight tail (throttled) —
		// sustained overload is exactly when the recent-event record
		// matters.
		var slot int
		select {
		case slot = <-s.slots:
		default:
			s.c.requests.Inc()
			s.c.overloaded.Inc()
			s.markTrouble()
			s.lg.Event("serve.request_shed").Str("id", req.ID).Str("op", req.Op).Emit()
			s.dumpFlight("overload", "", req)
			r := errResp(ErrOverloaded, "queue full (%d in flight)", s.opts.QueueDepth)
			r.ID = req.ID
			send(r)
			continue
		}
		s.inflight.Add(1)
		connWG.Add(1)
		go func(req *Request, slot int) {
			defer connWG.Done()
			defer s.inflight.Done()
			s.handle(req, slot, send)
		}(req, slot)
	}
	return sc.Err()
}

// ListenUnix binds the daemon's Unix socket. A stale socket file from
// a crashed previous daemon is detected by dialing: if nothing
// answers, the file is removed and the address reused; if a live
// daemon answers, binding fails — two daemons on one socket would
// split the session namespace.
func ListenUnix(path string) (net.Listener, error) {
	l, err := net.Listen("unix", path)
	if err == nil {
		return l, nil
	}
	if conn, derr := net.DialTimeout("unix", path, 250*time.Millisecond); derr == nil {
		conn.Close()
		return nil, fmt.Errorf("socket %s already served by a live daemon", path)
	}
	if rerr := os.Remove(path); rerr != nil {
		return nil, err
	}
	return net.Listen("unix", path)
}

// ServeListener accepts connections until shutdown. Each connection
// gets its own request loop; sessions are shared across connections.
func (s *Server) ServeListener(l net.Listener) error {
	go func() {
		<-s.quit
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.ServeConn(conn)
		}()
	}
}

// handle runs one admitted request to completion: deadline, watchdog,
// panic containment, single-shot response. It returns the admission
// slot.
func (s *Server) handle(req *Request, slot int, send func(*Response)) {
	start := time.Now()
	rid := s.rid()
	s.c.requests.Inc()
	s.c.inflight.Add(1)
	s.live.Add(1)
	s.lg.Event("serve.request_admitted").
		Str("rid", rid).Str("id", req.ID).Str("op", req.Op).Int("slot", int64(slot)).Emit()
	// release gives the slot back. The worker's answer releases it before
	// the response is written, so a client that waits for each answer
	// never finds its own previous request still holding the slot. A
	// request the watchdog answered keeps its slot until its goroutine
	// returns (the deferred call).
	release := sync.OnceFunc(func() {
		s.c.inflight.Add(-1)
		s.live.Add(-1)
		s.slots <- slot
	})
	defer release()
	defer func() { s.c.durationMS.Observe(time.Since(start).Milliseconds()) }()

	deadline := s.opts.Deadline
	if req.DeadlineMS > 0 {
		if d := time.Duration(req.DeadlineMS) * time.Millisecond; d < deadline {
			deadline = d
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if req.ID != "" {
		s.registerCancel(req.ID, cancel)
		defer s.unregisterCancel(req.ID)
	}

	// Single-shot response: the first of {worker result, watchdog
	// verdict} wins; the loser's reply is dropped. A winning worker
	// releases its slot before the response is written.
	var once sync.Once
	reply := func(r *Response, worker bool) {
		once.Do(func() {
			r.ID = req.ID
			if r.OK {
				s.c.ok.Inc()
			} else {
				s.c.failed.Inc()
				switch r.ErrKind {
				case ErrDeadline:
					s.c.deadlined.Inc()
					s.markTrouble()
				case ErrCanceled:
					s.c.canceled.Inc()
				}
			}
			s.lg.Event("serve.request_done").
				Str("rid", rid).Str("id", req.ID).Str("op", req.Op).
				Bool("ok", r.OK).Str("err_kind", r.ErrKind).
				Int("dur_us", time.Since(start).Microseconds()).Emit()
			if worker {
				release()
			}
			send(r)
		})
	}

	// Watchdog: a request that ignores its context past the grace is
	// wedged — answer for it and cancel harder. Its goroutine keeps
	// draining in the background until an engine budget stops it; the
	// slot is only returned when it does, so wedged work also counts
	// against admission (by design: a daemon wedged N times is
	// overloaded, not healthy).
	wd := time.AfterFunc(deadline+s.opts.Grace, func() {
		s.c.watchdog.Inc()
		s.lg.Event("serve.watchdog_fired").
			Str("rid", rid).Str("id", req.ID).Str("op", req.Op).Emit()
		cancel()
		reply(errResp(ErrDeadline, "request exceeded deadline %s and grace %s (watchdog)", deadline, s.opts.Grace), false)
		// The forensic record of what the wedged request was doing —
		// written after the client has its answer.
		s.dumpFlight("watchdog", rid, req)
	})
	defer wd.Stop()

	trk := s.opts.Obs.Track(fmt.Sprintf("serve.slot-%02d", slot))
	sp := trk.Begin("serve.request").Arg("op", req.Op).Arg("id", req.ID).Arg("rid", rid)
	resp := s.execute(ctx, req, rid)
	sp.Arg("ok", resp.OK).End()
	if h := s.opDur[req.Op]; h != nil {
		h.Observe(time.Since(start).Microseconds())
	}

	if !resp.OK && resp.ErrKind == "" {
		// Map context outcomes onto typed kinds for uniform clients.
		switch ctx.Err() {
		case context.DeadlineExceeded:
			resp.ErrKind = ErrDeadline
		case context.Canceled:
			resp.ErrKind = ErrCanceled
		default:
			resp.ErrKind = ErrInternal
		}
	}
	reply(resp, true)
}

// execute dispatches one request with panic containment: a crash in
// any handler returns a structured internal error and drops the
// session's detection summaries (one may have been computed from the
// crashed request's state), leaving the daemon healthy.
func (s *Server) execute(ctx context.Context, req *Request, rid string) (resp *Response) {
	sess := s.lookup(req.Session)
	defer func() {
		if r := recover(); r != nil {
			s.c.panics.Inc()
			if sess != nil {
				sess.poison()
			}
			resp = errResp(ErrInternal, "contained panic in %s: %v", req.Op, r)
			// The stack goes to the trace args, not the wire: clients
			// get a stable one-line error, operators get the detail.
			s.opts.Obs.Track("serve.errors").Begin("serve.panic_contained").
				Arg("op", req.Op).Arg("stack", string(debug.Stack())).End()
			s.lg.Event("serve.panic_contained").
				Str("rid", rid).Str("id", req.ID).Str("op", req.Op).
				Str("panic", fmt.Sprint(r)).Emit()
			s.dumpFlight("panic", rid, req)
		}
	}()
	if s.faultInject != nil {
		s.faultInject(ctx, req)
	}
	switch req.Op {
	case "load":
		return s.opLoad(ctx, req)
	case "edit":
		return s.opEdit(ctx, req, sess)
	case "port":
		return s.opPort(ctx, req, sess)
	case "dump":
		return s.opDump(req, sess)
	case "explain-races":
		return s.opExplain(ctx, req, sess)
	case "verify":
		return s.opVerify(ctx, req, sess)
	case "stress":
		return s.opStress(ctx, req, sess)
	case "optimize":
		return s.opOptimize(ctx, req, sess)
	case "stats", "health":
		return s.opStats()
	default:
		return errResp(ErrBadRequest, "unknown op %q", req.Op)
	}
}

// lookup resolves a request's session (nil when absent).
func (s *Server) lookup(name string) *session {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[name]
}

// install publishes a freshly loaded session under its name.
func (s *Server) install(name string, sess *session) {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	s.sessions[name] = sess
	s.mu.Unlock()
}

// sessionNames returns the sorted session inventory.
func (s *Server) sessionNames() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for n := range s.sessions {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

func (s *Server) registerCancel(id string, c context.CancelFunc) {
	s.cancelMu.Lock()
	s.cancels[id] = c
	s.cancelMu.Unlock()
}

func (s *Server) unregisterCancel(id string) {
	s.cancelMu.Lock()
	delete(s.cancels, id)
	s.cancelMu.Unlock()
}

// cancelRequest cancels the in-flight request with the given id.
func (s *Server) cancelRequest(id string) bool {
	s.cancelMu.Lock()
	c, ok := s.cancels[id]
	s.cancelMu.Unlock()
	if ok {
		c()
	}
	return ok
}

// trimSpace is a tiny allocation-free TrimSpace for the hot read loop.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 {
		c := b[len(b)-1]
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			break
		}
		b = b[:len(b)-1]
	}
	return b
}
