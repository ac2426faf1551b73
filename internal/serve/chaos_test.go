// Chaos tests: the daemon under hostile conditions — concurrent
// clients, injected panics, malformed lines, in-flight cancellation,
// wedged handlers, admission overload — must answer every request
// exactly once, stay healthy, keep producing CLI-identical output, and
// leak no goroutines.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// readFlightDump polls for the crash file (watchdog dumps land after
// the client already has its answer), validates it, and decodes the
// envelope.
func readFlightDump(t *testing.T, path string) (data []byte, reason string, tags map[string]string) {
	t.Helper()
	for i := 0; i < 250; i++ {
		if data, _ = os.ReadFile(path); len(data) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(data) == 0 {
		t.Fatalf("no flight dump at %s", path)
	}
	if err := obs.ValidateFlight(data); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if max := 2 * 1024 * obs.MaxRecordBytes; len(data) > max {
		t.Errorf("flight dump is %d bytes, bound is %d", len(data), max)
	}
	var d struct {
		Reason string            `json:"reason"`
		Tags   map[string]string `json:"tags"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("flight dump envelope: %v", err)
	}
	return data, d.Reason, d.Tags
}

// TestChaosStorm fires six concurrent clients mixing good ports,
// panic-injected ports, malformed lines, garbage deltas, stats, and
// cross-cancellations at one daemon, then checks the wreckage: one
// response per request, panics contained, cache poisoned-and-refilled,
// and the final output still byte-identical to the CLI.
func TestChaosStorm(t *testing.T) {
	leakcheck.Check(t)
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("chaos.c", 2000, 11))
	ref := cliPortSource(t, "chaos.c", src)

	crash := filepath.Join(t.TempDir(), "flight.json")
	srv := New(Options{QueueDepth: 16, Workers: 2, CrashPath: crash})
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "boom") {
			panic("chaos: injected fault")
		}
	}
	c := connect(t, srv)
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "chaos.c", Source: src}))

	const clients, rounds = 6, 5
	var malformed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				switch (w + i) % 6 {
				case 0:
					c.call(&Request{ID: id, Op: "port"})
				case 1:
					if r := c.call(&Request{ID: "boom-" + id, Op: "port"}); r.OK || r.ErrKind != ErrInternal {
						c.t.Errorf("injected panic %s: got ok=%t kind=%q, want internal", id, r.OK, r.ErrKind)
					}
				case 2:
					c.call(&Request{ID: id, Op: "stats"})
				case 3:
					if r := c.call(&Request{ID: id, Op: "edit", Replace: []string{"define i64 @broken("}}); r.OK {
						c.t.Errorf("garbage delta %s unexpectedly succeeded", id)
					}
				case 4:
					malformed.Add(1)
					c.raw(`{"op":`)
				case 5:
					// Cancel a peer's (possibly finished) request: ok or
					// bad_request are both legal; a hang is not.
					c.call(&Request{ID: id, Op: "cancel", Target: fmt.Sprintf("w%d-r%d", (w+1)%clients, i)})
				}
			}
		}(w)
	}
	wg.Wait()

	st := mustOK(t, c.call(&Request{ID: "st", Op: "stats"})).Stats
	if st.PanicsContained == 0 {
		t.Errorf("stats: no panics contained, want >0")
	}
	if !st.Healthy || st.Draining {
		t.Errorf("daemon unhealthy after storm: %+v", st)
	}

	// The contained panics dumped the flight recorder; even mid-storm
	// the dump must be a valid, bounded document.
	if _, reason, _ := readFlightDump(t, crash); reason != "panic" {
		t.Errorf("storm dump reason %q, want panic", reason)
	}

	// The poisoned cache must refill and still produce CLI-identical
	// output.
	final := mustOK(t, c.call(&Request{ID: "final", Op: "port", Emit: true}))
	if final.Text != ref {
		t.Errorf("post-storm output differs from CLI output")
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))

	c.mu.Lock()
	for id, n := range c.got {
		if n != 1 {
			t.Errorf("request %q got %d responses, want exactly 1", id, n)
		}
	}
	anon := c.anon
	c.mu.Unlock()
	if int64(anon) != malformed.Load() {
		t.Errorf("%d anonymous error responses for %d malformed lines", anon, malformed.Load())
	}
}

// TestPanicUnderSessionReadLock: a panic while a port reads the
// snapshot it read under the session's read lock is answered as
// internal, and the lock is not left held, so the next requests on the
// session go through.
func TestPanicUnderSessionReadLock(t *testing.T) {
	leakcheck.Check(t)
	srv, c := startServer(t, Options{})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))

	// A snapshot whose port panics: a load stripped of its address
	// operand, which detection indexes.
	bad := ir.NewModule("bad")
	if err := bad.AddGlobal(&ir.Global{GName: "g", Elem: ir.I64}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "f", RetTy: ir.Void}
	if err := bad.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	b.Load(bad.Global("g")).Args = nil
	b.Ret(nil)
	sess := srv.lookup("")
	sess.mu.Lock()
	good, goodSums := sess.snap, sess.sums
	sess.snap, sess.sums = bad, make([]*atomig.FuncSummary, len(bad.Funcs))
	sess.mu.Unlock()

	within := func(req *Request) *Response {
		t.Helper()
		ch := c.expect(req.ID)
		c.send(req)
		select {
		case r := <-ch:
			return r
		case <-time.After(30 * time.Second):
			t.Fatalf("no response to %q: the session lock is still held", req.ID)
			return nil
		}
	}
	if r := within(&Request{ID: "boom", Op: "port"}); r.OK || r.ErrKind != ErrInternal {
		t.Fatalf("port of the broken snapshot: got ok=%t kind=%q (%s), want internal", r.OK, r.ErrKind, r.Error)
	}
	mustOK(t, within(&Request{ID: "dump", Op: "dump"}))

	sess.mu.Lock()
	sess.snap, sess.sums = good, goodSums
	sess.mu.Unlock()
	p := mustOK(t, within(&Request{ID: "port", Op: "port", Emit: true}))
	if want := cliPortSource(t, "small.c", smallSrc); p.Text != want {
		t.Errorf("port after the contained panic differs from the CLI port")
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestConcurrentEditsAndPorts: ports run while edits replace functions
// the snapshots share, and the final port is still the CLI's port of
// the dumped module.
func TestConcurrentEditsAndPorts(t *testing.T) {
	leakcheck.Check(t)
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("conc.c", 2000, 5))
	_, c := startServer(t, Options{Workers: 2})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "conc.c", Source: src}))
	base, err := ir.ParseModule(mustOK(t, c.call(&Request{ID: "dump0", Op: "dump"})).Text)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			delta := strings.Replace(ir.FuncString(base.Func(fmt.Sprintf("lg_compute%d", i+1))),
				fmt.Sprintf("@lg_compute%d(", i+1), fmt.Sprintf("@lg_compute%d(", i), 1)
			if r := c.call(&Request{ID: fmt.Sprintf("edit%d", i), Op: "edit", Replace: []string{delta}}); !r.OK {
				t.Errorf("edit %d: %s: %s", i, r.ErrKind, r.Error)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if r := c.call(&Request{ID: fmt.Sprintf("port%d", i), Op: "port"}); !r.OK {
				t.Errorf("port %d: %s: %s", i, r.ErrKind, r.Error)
			}
		}
	}()
	wg.Wait()
	dump := mustOK(t, c.call(&Request{ID: "dump1", Op: "dump"}))
	final := mustOK(t, c.call(&Request{ID: "final", Op: "port", Emit: true}))
	if final.Text != cliPortAIR(t, dump.Text) {
		t.Errorf("port after concurrent edits differs from the CLI port of the dumped module")
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestExplainSweepsPublishedBase: explain-races sweeps the session's
// published module itself, without a copy, while edits replace
// functions it shares and ports read the snapshot; no published
// module's text changes, and the final port is still the CLI's port of
// the dumped module.
func TestExplainSweepsPublishedBase(t *testing.T) {
	leakcheck.Check(t)
	src := smallSrc + `
int spare;
int fill0(int x) { spare = x; return x + 1; }
int fill1(int x) { spare = x * 2; return x - 1; }
`
	srv, c := startServer(t, Options{Workers: 2})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "explain.c", Source: src}))
	sess := srv.lookup("")
	first := sess.current()
	firstText := first.String()
	entries := []string{"reader", "writer"}
	x := mustOK(t, c.call(&Request{ID: "x", Op: "explain-races", Entries: entries}))
	if !strings.Contains(x.Text, "@flag") {
		t.Errorf("explain-races output lacks @flag:\n%s", x.Text)
	}
	if sess.current() != first || first.String() != firstText {
		t.Fatal("the sweep changed the published module")
	}
	base, err := ir.ParseModule(firstText)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			to, from := fmt.Sprintf("fill%d", i%2), fmt.Sprintf("fill%d", 1-i%2)
			delta := strings.Replace(ir.FuncString(base.Func(from)), "@"+from+"(", "@"+to+"(", 1)
			if r := c.call(&Request{ID: fmt.Sprintf("edit%d", i), Op: "edit", Replace: []string{delta}}); !r.OK {
				t.Errorf("edit %d: %s: %s", i, r.ErrKind, r.Error)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if r := c.call(&Request{ID: fmt.Sprintf("port%d", i), Op: "port"}); !r.OK {
				t.Errorf("port %d: %s: %s", i, r.ErrKind, r.Error)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r := c.call(&Request{ID: fmt.Sprintf("explain%d", i), Op: "explain-races", Entries: entries})
			if !r.OK || r.Text != x.Text {
				t.Errorf("explain %d: ok=%t %s: %s", i, r.OK, r.ErrKind, r.Error)
			}
		}
	}()
	wg.Wait()
	if first.String() != firstText {
		t.Error("the first published module changed under concurrent sweeps, edits and ports")
	}
	dump := mustOK(t, c.call(&Request{ID: "dump", Op: "dump"}))
	final := mustOK(t, c.call(&Request{ID: "final", Op: "port", Emit: true}))
	if final.Text != cliPortAIR(t, dump.Text) {
		t.Errorf("port after concurrent sweeps differs from the CLI port of the dumped module")
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestCancelInFlight cancels a request that is genuinely running (held
// open by the fault seam) and checks the typed canceled response and
// counter.
func TestCancelInFlight(t *testing.T) {
	leakcheck.Check(t)
	srv := New(Options{QueueDepth: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "gate") {
			entered <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
	}
	c := connect(t, srv)
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))

	ch := c.expect("gate-1")
	c.send(&Request{ID: "gate-1", Op: "port"})
	<-entered
	mustOK(t, c.call(&Request{ID: "c1", Op: "cancel", Target: "gate-1"}))
	r := <-ch
	if r.OK || r.ErrKind != ErrCanceled {
		t.Errorf("canceled port: got ok=%t kind=%q (%s), want canceled", r.OK, r.ErrKind, r.Error)
	}
	if got := srv.c.canceled.Value(); got == 0 {
		t.Errorf("serve.requests_canceled = %d, want >0", got)
	}
	close(gate)
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestRequestDeadline sets a tiny per-request deadline on a port held
// open by the fault seam; the engine notices the expired context and
// the client gets the typed deadline response.
func TestRequestDeadline(t *testing.T) {
	leakcheck.Check(t)
	srv := New(Options{QueueDepth: 2})
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "slow") {
			select {
			case <-time.After(10 * time.Second):
			case <-ctx.Done():
			}
		}
	}
	c := connect(t, srv)
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))

	r := c.call(&Request{ID: "slow-1", Op: "port", DeadlineMS: 80})
	if r.OK || r.ErrKind != ErrDeadline {
		t.Errorf("deadlined port: got ok=%t kind=%q (%s), want deadline", r.OK, r.ErrKind, r.Error)
	}
	if got := srv.c.deadlined.Value(); got == 0 {
		t.Errorf("serve.requests_deadlined = %d, want >0", got)
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestWatchdogAnswersForWedgedRequest wedges a handler past deadline
// and grace (it ignores its context entirely); the watchdog must
// answer on its behalf with the typed deadline error while the daemon
// stays responsive, and the wedged goroutine must still unwind.
func TestWatchdogAnswersForWedgedRequest(t *testing.T) {
	leakcheck.Check(t)
	crash := filepath.Join(t.TempDir(), "flight.json")
	srv := New(Options{
		QueueDepth: 2,
		Deadline:   100 * time.Millisecond,
		Grace:      100 * time.Millisecond,
		CrashPath:  crash,
	})
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "wedge") {
			time.Sleep(600 * time.Millisecond) // deliberately ignores ctx
		}
	}
	c := connect(t, srv)

	r := c.call(&Request{ID: "wedge-1", Op: "stats"})
	if r.OK || r.ErrKind != ErrDeadline || !strings.Contains(r.Error, "watchdog") {
		t.Errorf("wedged request: got ok=%t kind=%q (%s), want watchdog deadline", r.OK, r.ErrKind, r.Error)
	}
	st := mustOK(t, c.call(&Request{ID: "st", Op: "stats"})).Stats
	if st.WatchdogFired == 0 {
		t.Errorf("stats: watchdog_fired = 0, want >0")
	}
	if !st.Healthy {
		t.Errorf("daemon unhealthy after watchdog fire")
	}

	// The forensic contract: the dump names the wedged request, both by
	// the daemon-assigned rid and the client's id, and replays the
	// events leading up to the wedge.
	data, reason, tags := readFlightDump(t, crash)
	if reason != "watchdog" {
		t.Errorf("dump reason %q, want watchdog", reason)
	}
	if tags["request_id"] != "wedge-1" || tags["op"] != "stats" {
		t.Errorf("dump tags %v do not name the wedged request", tags)
	}
	if !strings.HasPrefix(tags["rid"], "r") {
		t.Errorf("dump tags %v carry no daemon rid", tags)
	}
	if !strings.Contains(string(data), "serve.request_admitted") {
		t.Errorf("dump carries no admission events:\n%.400s", data)
	}

	// shutdown drains the still-sleeping wedged goroutine before
	// answering; leakcheck then sees it gone.
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestOverloadAndDrain fills the single admission slot with a held
// request: the next request gets the typed overloaded response
// immediately; after release and an explicit drain flip, new work gets
// the typed shutting_down response.
func TestOverloadAndDrain(t *testing.T) {
	leakcheck.Check(t)
	srv := New(Options{QueueDepth: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "hold") {
			entered <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
	}
	c := connect(t, srv)

	ch := c.expect("hold-1")
	c.send(&Request{ID: "hold-1", Op: "stats"})
	<-entered
	if r := c.call(&Request{ID: "ov", Op: "stats"}); r.OK || r.ErrKind != ErrOverloaded {
		t.Errorf("overload: got ok=%t kind=%q (%s), want overloaded", r.OK, r.ErrKind, r.Error)
	}
	if got := srv.c.overloaded.Value(); got != 1 {
		t.Errorf("serve.requests_overloaded = %d, want 1", got)
	}
	close(gate)
	if r := <-ch; !r.OK {
		t.Errorf("held request failed after release: %s: %s", r.ErrKind, r.Error)
	}

	srv.Shutdown()
	if r := c.call(&Request{ID: "ds", Op: "stats"}); r.OK || r.ErrKind != ErrShutdown {
		t.Errorf("draining: got ok=%t kind=%q, want shutting_down", r.OK, r.ErrKind)
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
	srv.Drain()
}

// TestSequentialClientNeverShed: a client that waits for each answer
// before it sends the next request never finds its previous request
// still holding the only admission slot — the slot is back before the
// answer is written.
func TestSequentialClientNeverShed(t *testing.T) {
	leakcheck.Check(t)
	srv, c := startServer(t, Options{QueueDepth: 1})
	const calls = 2000
	for i := 0; i < calls; i++ {
		if r := c.call(&Request{ID: fmt.Sprintf("s%d", i), Op: "stats"}); !r.OK {
			t.Fatalf("call %d of %d: %s: %s", i+1, calls, r.ErrKind, r.Error)
		}
	}
	if n := srv.c.overloaded.Value(); n != 0 {
		t.Errorf("serve.requests_overloaded = %d, want 0", n)
	}
}

// TestHTTPListener drives the live-telemetry surface through a full
// daemon lifecycle: valid Prometheus and JSON exposition, a mid-flight
// scrape whose counters cross-check against the end-of-run snapshot,
// /healthz walking ok → degraded (queue full) → ok, and a shutdown
// that stops the listener without leaking its goroutines.
func TestHTTPListener(t *testing.T) {
	leakcheck.Check(t)
	prov := obs.New()
	srv := New(Options{QueueDepth: 1, Obs: prov})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.faultInject = func(ctx context.Context, req *Request) {
		if strings.HasPrefix(req.ID, "hold") {
			entered <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
	}
	addr, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := hc.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, body
	}
	health := func() obs.Health {
		t.Helper()
		_, body := get("/healthz")
		var h obs.Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz: %v (%s)", err, body)
		}
		return h
	}

	c := connect(t, srv)
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))
	if h := health(); h.Status != "ok" {
		t.Errorf("idle health = %+v, want ok", h)
	}

	// Hold the only admission slot: the daemon is mid-request AND the
	// queue is full, so the scrape observes a live run and health
	// degrades.
	ch := c.expect("hold-1")
	c.send(&Request{ID: "hold-1", Op: "port"})
	select {
	case <-entered:
	case r := <-ch:
		t.Fatalf("hold-1 answered without holding the slot: ok=%t kind=%q (%s)", r.OK, r.ErrKind, r.Error)
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("hold-1 never reached its handler")
	}
	code, scrape := get("/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics status %d", code)
	}
	if err := obs.ValidateProm(scrape); err != nil {
		t.Errorf("mid-flight scrape invalid: %v", err)
	}
	if h := health(); h.Status != "degraded" || h.Reason == "" {
		t.Errorf("health under full queue = %+v, want degraded with reason", h)
	}
	_, mjson := get("/metrics.json")
	if err := obs.ValidateMetrics(mjson); err != nil {
		t.Errorf("/metrics.json invalid: %v", err)
	}
	close(gate)
	if r := <-ch; !r.OK {
		t.Fatalf("held port failed: %s: %s", r.ErrKind, r.Error)
	}

	// The mid-flight scrape must be consistent with the end-of-run v2
	// snapshot: shared counters ≤ final values, with real overlap.
	final, err := obs.EncodeMetrics(prov.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckPromAgainst(scrape, final); err != nil {
		t.Errorf("mid-flight scrape inconsistent with final snapshot: %v", err)
	}

	// Shutdown stops the listener (the shutdown op drains httpWG before
	// answering); the surface must actually be gone.
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
	if _, err := hc.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("HTTP listener still answering after shutdown drain")
	}
}
