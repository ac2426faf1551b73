// Conformance tests for the daemon: the protocol behaves as documented
// in docs/SERVE.md, and — the load-bearing contract — daemon output is
// byte-identical to a cold `atomig -j 1` CLI run on the same module,
// cold, warm, and after function-level edits.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/leakcheck"
	"repro/internal/minic"
)

// rwPair glues two pipe halves into the io.ReadWriter ServeConn wants.
type rwPair struct {
	io.Reader
	io.Writer
}

// client drives a Server through the wire protocol over in-memory
// pipes, correlating responses by id exactly like a real client.
type client struct {
	t *testing.T
	w io.Writer

	mu      sync.Mutex
	waiters map[string]chan *Response
	got     map[string]int // responses seen per id
	anon    int            // responses with no id (malformed-line errors)

	done chan struct{}
}

// startServer builds a Server and connects a client to it.
func startServer(t *testing.T, opts Options) (*Server, *client) {
	t.Helper()
	srv := New(opts)
	return srv, connect(t, srv)
}

// connect wires a fresh client connection to srv. Cleanup closes the
// client side (EOF to the server loop), waits for the server loop to
// drain, then unwinds the reader — so leakcheck sees a quiet world.
func connect(t *testing.T, srv *Server) *client {
	t.Helper()
	clientRead, serverWrite := io.Pipe()
	serverRead, clientWrite := io.Pipe()
	c := &client{
		t: t, w: clientWrite,
		waiters: make(map[string]chan *Response),
		got:     make(map[string]int),
		done:    make(chan struct{}),
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(rwPair{serverRead, serverWrite})
	}()
	go c.readLoop(clientRead)
	t.Cleanup(func() {
		clientWrite.Close()
		<-serveDone
		serverWrite.Close()
		<-c.done
	})
	return c
}

func (c *client) readLoop(r io.Reader) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			c.t.Errorf("client: unparsable response line: %v", err)
			continue
		}
		c.mu.Lock()
		if resp.ID == "" {
			c.anon++
			c.mu.Unlock()
			continue
		}
		c.got[resp.ID]++
		ch := c.waiters[resp.ID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- &resp:
			default:
				c.t.Errorf("client: duplicate response for id %q", resp.ID)
			}
		}
	}
}

// raw writes one line verbatim (for malformed-input tests).
func (c *client) raw(line string) {
	if _, err := io.WriteString(c.w, line+"\n"); err != nil {
		c.t.Errorf("client write: %v", err)
	}
}

// expect registers interest in an id before sending it, for callers
// that need to send and wait separately (in-flight cancellation).
func (c *client) expect(id string) chan *Response {
	ch := make(chan *Response, 1)
	c.mu.Lock()
	c.waiters[id] = ch
	c.mu.Unlock()
	return ch
}

func (c *client) send(req *Request) {
	b, err := json.Marshal(req)
	if err != nil {
		c.t.Errorf("client: marshal request %q: %v", req.ID, err)
		return
	}
	c.raw(string(b))
}

// call sends a request and waits for its response.
func (c *client) call(req *Request) *Response {
	ch := c.expect(req.ID)
	c.send(req)
	select {
	case r := <-ch:
		return r
	case <-time.After(180 * time.Second):
		c.t.Errorf("client: timed out waiting for response %q", req.ID)
		return &Response{ID: req.ID, ErrKind: "client_timeout", Error: "test client timeout"}
	}
}

// anonCount reads the malformed-line response counter.
func (c *client) anonCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.anon
}

func mustOK(t *testing.T, r *Response) *Response {
	t.Helper()
	if !r.OK {
		t.Fatalf("request %q failed: %s: %s", r.ID, r.ErrKind, r.Error)
	}
	return r
}

// cliPort runs the exact pipeline `atomig -j 1` runs and renders the
// ported module — the byte-identity reference.
func cliPort(t *testing.T, m *ir.Module) string {
	t.Helper()
	opts := atomig.DefaultOptions()
	opts.Workers = 1
	if _, err := atomig.Port(m, opts); err != nil {
		t.Fatalf("reference port: %v", err)
	}
	return m.String()
}

func cliPortSource(t *testing.T, name, src string) string {
	t.Helper()
	res, err := minic.Compile(name, src)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return cliPort(t, res.Module)
}

func cliPortAIR(t *testing.T, text string) string {
	t.Helper()
	m, err := ir.ParseModule(text)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	return cliPort(t, m)
}

const smallSrc = `
int flag;
int msg;
void writer(void) { msg = 1; flag = 1; }
void reader(void) { while (flag == 0) { } int m = msg; msg = m; }
`

// TestConformanceColdWarmEdit is the acceptance test for the
// incremental tentpole: cold, warm, and post-edit daemon output is
// byte-identical to the CLI; the warm single-function re-port hits the
// cache everywhere except the edited function and is >= 10x faster
// than the cold full run.
func TestConformanceColdWarmEdit(t *testing.T) {
	leakcheck.Check(t)
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("conf.c", 16000, 7))

	// The byte-identity reference: exactly what `atomig -j 1` renders
	// for this source.
	ref := cliPortSource(t, "conf.c", src)

	_, c := startServer(t, Options{})

	// The cold-full-run baseline is measured over the same protocol as
	// the warm run: load the source and port it with an empty cache,
	// rendering the result — what every request would cost if the
	// daemon kept no state between them.
	coldStart := time.Now()
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "conf.c", Source: src}))
	cold := mustOK(t, c.call(&Request{ID: "cold", Op: "port", Emit: true}))
	coldDur := time.Since(coldStart)
	if cold.Text != ref {
		t.Fatalf("cold daemon output differs from CLI output (%d vs %d bytes)", len(cold.Text), len(ref))
	}
	if cold.Report.CacheHits != 0 || cold.Report.CacheMisses == 0 {
		t.Errorf("cold port: hits=%d misses=%d, want 0 hits and >0 misses",
			cold.Report.CacheHits, cold.Report.CacheMisses)
	}

	warm := mustOK(t, c.call(&Request{ID: "warm", Op: "port", Emit: true}))
	if warm.Text != ref {
		t.Errorf("warm daemon output differs from CLI output")
	}
	if warm.Report.CacheMisses != 0 || warm.Report.CacheHits == 0 {
		t.Errorf("warm port: hits=%d misses=%d, want all hits",
			warm.Report.CacheHits, warm.Report.CacheMisses)
	}

	// Single-function edits: give @lg_compute<r> the body of
	// @lg_compute<r+1> (same signature; the generator never calls
	// fillers, so exactly one post-inline function body changes per
	// round). Three rounds, taking the fastest re-port: the host has one
	// CPU and a GC cycle landing inside the timed window would otherwise
	// dominate a single sample.
	dump := mustOK(t, c.call(&Request{ID: "dump1", Op: "dump"}))
	base, err := ir.ParseModule(dump.Text)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	warmDur := time.Duration(1<<62 - 1)
	for r := 0; r < 3; r++ {
		donor := base.Func(fmt.Sprintf("lg_compute%d", r+1))
		if donor == nil || base.Func(fmt.Sprintf("lg_compute%d", r)) == nil {
			t.Fatal("generated module lacks the expected filler functions")
		}
		delta := strings.Replace(ir.FuncString(donor),
			fmt.Sprintf("@lg_compute%d(", r+1), fmt.Sprintf("@lg_compute%d(", r), 1)
		mustOK(t, c.call(&Request{ID: fmt.Sprintf("edit%d", r), Op: "edit", Replace: []string{delta}}))

		runtime.GC()
		warmStart := time.Now()
		edited := mustOK(t, c.call(&Request{ID: fmt.Sprintf("warm2-%d", r), Op: "port"}))
		if d := time.Since(warmStart); d < warmDur {
			warmDur = d
		}
		if edited.Report.CacheMisses != 1 {
			t.Errorf("post-edit port %d: misses=%d, want 1 (the edited function)", r, edited.Report.CacheMisses)
		}
		if edited.Report.CacheHits == 0 {
			t.Errorf("post-edit port %d: no cache hits", r)
		}
	}

	dump2 := mustOK(t, c.call(&Request{ID: "dump2", Op: "dump"}))
	ref2 := cliPortAIR(t, dump2.Text)
	emit2 := mustOK(t, c.call(&Request{ID: "emit2", Op: "port", Emit: true}))
	if emit2.Text != ref2 {
		t.Errorf("post-edit daemon output differs from CLI port of the dumped module")
	}

	if coldDur < 10*warmDur {
		t.Errorf("warm re-port not >=10x faster than cold full run: cold=%v warm=%v (%.1fx)",
			coldDur, warmDur, float64(coldDur)/float64(warmDur))
	} else {
		t.Logf("cold=%v warm=%v (%.1fx)", coldDur, warmDur, float64(coldDur)/float64(warmDur))
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestProtocolErrors checks every typed failure a well-behaved client
// can trigger, and that none of them damages the session.
func TestProtocolErrors(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})

	cases := []struct {
		req  *Request
		kind string
	}{
		{&Request{ID: "e1", Op: "port"}, ErrNoModule},
		{&Request{ID: "e2", Op: "frobnicate"}, ErrBadRequest},
		{&Request{ID: "e3", Op: "load", Name: "x.c", Source: "int x = = 1;"}, ErrBadRequest},
		{&Request{ID: "e4", Op: "load", Name: "x.c"}, ErrBadRequest},
		{&Request{ID: "e5", Op: "load", Source: "int x;"}, ErrBadRequest},
		{&Request{ID: "e6", Op: "cancel", Target: "nope"}, ErrBadRequest},
		{&Request{ID: "e7", Op: "explain-races"}, ErrNoModule},
		{&Request{ID: "e8", Op: "edit", Replace: []string{"define"}}, ErrNoModule},
	}
	for _, tc := range cases {
		r := c.call(tc.req)
		if r.OK || r.ErrKind != tc.kind {
			t.Errorf("%s: got ok=%t kind=%q (%s), want kind %q", tc.req.ID, r.OK, r.ErrKind, r.Error, tc.kind)
		}
	}

	// Malformed line: a structured error response with no id.
	c.raw(`{"op":`)
	deadline := time.Now().Add(5 * time.Second)
	for c.anonCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.anonCount(); n != 1 {
		t.Errorf("malformed line: %d anonymous error responses, want 1", n)
	}

	// A rejected delta leaves the session fully usable.
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))
	ref := cliPortSource(t, "small.c", smallSrc)
	r := c.call(&Request{ID: "bad-edit", Op: "edit", Replace: []string{"define i64 @broken("}})
	if r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("bad edit: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}
	p := mustOK(t, c.call(&Request{ID: "after", Op: "port", Emit: true}))
	if p.Text != ref {
		t.Errorf("session output changed after a rejected edit")
	}

	st := mustOK(t, c.call(&Request{ID: "st", Op: "health"}))
	if st.Stats == nil || !st.Stats.Healthy {
		t.Errorf("health: %+v, want healthy", st.Stats)
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestEditCallsModuleFunction: a replacement may call and spawn the
// module's other functions. Only the edited function (it has no
// callers) misses the cache, and the port is the CLI's port of the
// dumped module.
func TestEditCallsModuleFunction(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})
	src := `
int flag;
int data;
int helper(int a) { return a + data; }
void worker(void) { data = helper(1); flag = 1; }
void other(void) { data = 5; }
void main_thread(void) { spawn(worker); while (flag == 0) { } assert(data > 0); }
`
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "calls.c", Source: src}))
	mustOK(t, c.call(&Request{ID: "cold", Op: "port"}))
	delta := "define void @other() {\nentry:\n  %t0 = call i64 @helper(7)\n  store %t0, @data\n  call void @spawn(@worker)\n  ret void\n}\n"
	mustOK(t, c.call(&Request{ID: "edit", Op: "edit", Replace: []string{delta}}))
	warm := mustOK(t, c.call(&Request{ID: "warm", Op: "port", Emit: true}))
	if warm.Report.CacheMisses != 1 || warm.Report.CacheHits == 0 {
		t.Errorf("port after the edit: hits=%d misses=%d, want 1 miss", warm.Report.CacheHits, warm.Report.CacheMisses)
	}
	dump := mustOK(t, c.call(&Request{ID: "dump", Op: "dump"}))
	if !strings.Contains(dump.Text, "call i64 @helper(7)") {
		t.Fatalf("dump lacks the edited body:\n%s", dump.Text)
	}
	if want := cliPortAIR(t, dump.Text); warm.Text != want {
		t.Errorf("port after the edit differs from the CLI port of the dumped module")
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestRejectedDeltasLeaveSessionIntact: removing a function another
// still spawns, and changing the signature its callers use, are
// rejected deltas naming the function, and the session ports as
// before.
func TestRejectedDeltasLeaveSessionIntact(t *testing.T) {
	leakcheck.Check(t)
	prog := corpus.Get("tas")
	if prog == nil {
		t.Fatal("corpus program tas missing")
	}
	_, c := startServer(t, Options{})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "tas.c", Source: prog.Source}))
	want := cliPortAIR(t, mustOK(t, c.call(&Request{ID: "dump", Op: "dump"})).Text)
	for i, tc := range []struct {
		req  *Request
		text string
	}{
		{&Request{Remove: []string{"t0"}}, "reference to unknown function @t0"},
		{&Request{Replace: []string{"define void @locker(i64 %n) {\nentry:\n  store %n, @data\n  ret void\n}\n"}},
			"call to @locker passes 0 arguments, want 1"},
		{&Request{Replace: []string{"define i64 @locker() {\nentry:\n  ret 1\n}\n"}},
			"call to @locker expects void, the function returns i64"},
	} {
		tc.req.ID, tc.req.Op = fmt.Sprintf("edit%d", i), "edit"
		if r := c.call(tc.req); r.OK || r.ErrKind != ErrBadRequest || !strings.Contains(r.Error, tc.text) {
			t.Errorf("%s: got ok=%t kind=%q (%s), want bad_request with %q", tc.req.ID, r.OK, r.ErrKind, r.Error, tc.text)
		}
		p := mustOK(t, c.call(&Request{ID: fmt.Sprintf("port%d", i), Op: "port", Emit: true}))
		if p.Text != want {
			t.Errorf("port after %s differs from the CLI port", tc.req.ID)
		}
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestMiniCLoadPortsAsDump: a session loaded from MiniC ports as
// `atomig -j 1` ports its dump, cold and warm, for every corpus program
// and for one that both spawns and calls a function. The dump carries
// no IDs of void instructions and no ID watermark, yet the inliner names
// blocks after call IDs and numbers registers from the watermark, so
// the load must number the module as a parse of its dump does.
func TestMiniCLoadPortsAsDump(t *testing.T) {
	progs := []struct{ name, src string }{{"spawn-and-call", `
int data;
int flag;
void worker(void) { data = data + 1; flag = 1; }
void main_thread(void) { spawn(worker); worker(); while (flag == 0) { } assert(data > 0); }
`}}
	for _, p := range corpus.All() {
		progs = append(progs, struct{ name, src string }{p.Name, p.Source})
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			s, err := newSession(p.name+".c", p.src, "c", 1, nil)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			want := cliPortAIR(t, s.dumpBase())
			for _, run := range []string{"cold", "warm"} {
				ported, rep, err := s.port(context.Background(), 1, nil)
				if err != nil {
					t.Fatalf("%s port: %v", run, err)
				}
				if ported.String() != want {
					t.Errorf("%s port differs from the CLI port of the dumped module", run)
				}
				if run == "warm" && rep.CacheMisses != 0 {
					t.Errorf("warm port re-analyzed %d functions, want 0", rep.CacheMisses)
				}
			}
		})
	}
}

// TestSessionsAreIndependent checks that named sessions hold distinct
// modules and caches.
func TestSessionsAreIndependent(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})

	mustOK(t, c.call(&Request{ID: "l1", Op: "load", Session: "a", Name: "a.c", Source: smallSrc}))
	mustOK(t, c.call(&Request{ID: "l2", Op: "load", Session: "b", Name: "b.air", Lang: "air",
		Source: "@g = global i64\ndefine i64 @get() {\nentry:\n  %t0 = load i64, @g\n  ret %t0\n}\n"}))

	ra := mustOK(t, c.call(&Request{ID: "p1", Op: "port", Session: "a"}))
	rb := mustOK(t, c.call(&Request{ID: "p2", Op: "port", Session: "b"}))
	if ra.Module == rb.Module {
		t.Errorf("sessions returned the same module name %q", ra.Module)
	}
	if r := c.call(&Request{ID: "p3", Op: "port", Session: "c"}); r.OK || r.ErrKind != ErrNoModule {
		t.Errorf("unloaded session: got ok=%t kind=%q, want no_module", r.OK, r.ErrKind)
	}

	st := mustOK(t, c.call(&Request{ID: "st", Op: "stats"}))
	want := []string{"a", "b"}
	if len(st.Stats.Sessions) != 2 || st.Stats.Sessions[0] != want[0] || st.Stats.Sessions[1] != want[1] {
		t.Errorf("sessions = %v, want %v", st.Stats.Sessions, want)
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestOptimizeSaltFlip is the regression for the optimize-memo
// contract: only a repeat optimize with identical options on an
// unedited module replays the memoized weakening result, and flipping
// any option recomputes it. The detection cache is not keyed by the
// optimize options — detection runs on the un-weakened snapshot — so
// the port inside every optimize replays the warm cache, and its
// weakened module equals the same request's on a fresh server.
func TestOptimizeSaltFlip(t *testing.T) {
	leakcheck.Check(t)
	prog := corpus.Get("mp")
	if prog == nil {
		t.Fatal("corpus program mp missing")
	}
	_, c := startServer(t, Options{})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "mp.c", Source: prog.Source}))
	// fresh answers req on a server that has seen nothing but the load.
	fresh := func(req Request) *Response {
		t.Helper()
		_, fc := startServer(t, Options{})
		mustOK(t, fc.call(&Request{ID: "load", Op: "load", Name: "mp.c", Source: prog.Source}))
		r := mustOK(t, fc.call(&req))
		mustOK(t, fc.call(&Request{ID: "bye", Op: "shutdown"}))
		return r
	}

	// Warm the detection cache under the optimize-off configuration.
	cold := mustOK(t, c.call(&Request{ID: "p0", Op: "port"}))
	if cold.Report.CacheMisses == 0 {
		t.Fatalf("cold port: misses=%d, want > 0", cold.Report.CacheMisses)
	}
	warm := mustOK(t, c.call(&Request{ID: "p1", Op: "port"}))
	if warm.Report.CacheMisses != 0 || warm.Report.CacheHits == 0 {
		t.Fatalf("warm port: hits=%d misses=%d, want all hits", warm.Report.CacheHits, warm.Report.CacheMisses)
	}

	// First optimize: no memo to replay, and the port inside it replays
	// the warm detection cache.
	opt := &Request{ID: "o1", Op: "optimize", Entries: prog.MCEntries, MaxExecs: 50000, Emit: true}
	o1 := mustOK(t, c.call(opt))
	if o1.Replayed {
		t.Errorf("first optimize replayed a memo that cannot exist")
	}
	if o1.Report == nil || o1.Report.CacheMisses != 0 {
		t.Errorf("optimize did not replay the warm detection cache: %+v", o1.Report)
	}
	if f := fresh(*opt); o1.Text != f.Text {
		t.Errorf("optimize on a warm cache differs from a fresh server's:\n--- fresh\n%s\n--- warm\n%s", f.Text, o1.Text)
	}
	if o1.Optimize == nil || o1.Verdict != "verified" || o1.Reason != "" {
		t.Fatalf("optimize: verdict=%q reason=%q optimize=%v, want verified", o1.Verdict, o1.Reason, o1.Optimize)
	}
	if o1.Optimize.CostAfter >= o1.Optimize.CostBefore {
		t.Errorf("optimize did not reduce cost: %d -> %d", o1.Optimize.CostBefore, o1.Optimize.CostAfter)
	}
	if o1.Text == "" || o1.Text == cliPortSource(t, "mp.c", prog.Source) {
		t.Errorf("optimize -emit returned un-weakened module text")
	}

	// Same options again: the memoized result replays, byte-identical.
	opt.ID = "o2"
	o2 := mustOK(t, c.call(opt))
	if !o2.Replayed {
		t.Errorf("repeat optimize with identical options did not replay the memo")
	}
	if o2.Text != o1.Text || o2.Optimize.CostAfter != o1.Optimize.CostAfter {
		t.Errorf("replayed optimize differs from the original")
	}

	// Flip an option (cost-model arch): the memo must not replay, and
	// the port still replays the warm detection cache.
	flip := &Request{ID: "o3", Op: "optimize", Entries: prog.MCEntries, MaxExecs: 50000, Arch: "power", Emit: true}
	o3 := mustOK(t, c.call(flip))
	if o3.Replayed {
		t.Errorf("optimize with a flipped arch replayed the stale memo")
	}
	if o3.Report == nil || o3.Report.CacheMisses != 0 {
		t.Errorf("optimize with a flipped arch did not replay the warm detection cache: %+v", o3.Report)
	}
	if f := fresh(*flip); o3.Text != f.Text {
		t.Errorf("flipped-arch optimize differs from a fresh server's:\n--- fresh\n%s\n--- warm\n%s", f.Text, o3.Text)
	}
	if o3.Optimize.Arch != "power" || o3.Optimize.CostBefore == o1.Optimize.CostBefore {
		t.Errorf("flipped arch not reflected: arch=%q cost %d vs %d",
			o3.Optimize.Arch, o3.Optimize.CostBefore, o1.Optimize.CostBefore)
	}

	// Flip the race-detection flag: again no replay.
	o4 := mustOK(t, c.call(&Request{ID: "o4", Op: "optimize", Entries: prog.MCEntries,
		MaxExecs: 50000, Arch: "power", NoRaces: true}))
	if o4.Replayed {
		t.Errorf("optimize with a flipped race flag replayed the stale memo")
	}

	// Bad arch is a typed client error, not an engine failure.
	if r := c.call(&Request{ID: "o5", Op: "optimize", Entries: prog.MCEntries, Arch: "vax"}); r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("bad arch: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}
	// Missing entries likewise.
	if r := c.call(&Request{ID: "o6", Op: "optimize"}); r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("missing entries: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}
	// So is an oracle the weakener does not offer.
	if r := c.call(&Request{ID: "o7", Op: "optimize", Entries: prog.MCEntries, Oracle: "screened"}); r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("oracle screened: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestVerifyAndExplain drives the analysis ops end to end on the
// message-passing shape: explain-races finds the racy flag, verify
// passes on the ported module.
func TestVerifyAndExplain(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))

	if r := c.call(&Request{ID: "x0", Op: "explain-races"}); r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("explain without entries: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}
	ex := mustOK(t, c.call(&Request{ID: "x1", Op: "explain-races", Entries: []string{"reader", "writer"}}))
	if !strings.Contains(ex.Text, "@flag") {
		t.Errorf("explain-races output lacks @flag:\n%s", ex.Text)
	}

	mustOK(t, c.call(&Request{ID: "p1", Op: "port"})) // warm the cache
	v := mustOK(t, c.call(&Request{ID: "v1", Op: "verify", Entries: []string{"reader", "writer"}, MaxExecs: 20000}))
	if v.Verdict == "violated" || v.Verdict == "racy" {
		t.Errorf("verify after port: verdict=%q reason=%q, want verified or unknown", v.Verdict, v.Reason)
	}
	if v.Report == nil || v.Report.CacheHits == 0 {
		t.Errorf("verify did not reuse the warm detection cache: %+v", v.Report)
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestExplainViolationsReplayable: explain-races sweeps the 4-seed
// grid of every scheduler mode, and each failed schedule is reported
// with the mode, ordinal and seed that replay it.
func TestExplainViolationsReplayable(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})
	src := `
int flag;
int msg;
void writer(void) { msg = 41; flag = 1; }
void reader(void) { while (flag == 0) { } assert(msg == 41); }
`
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "mp.c", Source: src}))
	ex := mustOK(t, c.call(&Request{ID: "x", Op: "explain-races", Entries: []string{"reader", "writer"}}))
	if ex.Executions != 20 {
		t.Errorf("executions = %d, want 20 (5 modes x 4 seeds)", ex.Executions)
	}
	if len(ex.Violations) == 0 {
		t.Fatal("unported message passing under WMM reported no violation")
	}
	line := regexp.MustCompile(`^(random|starve|delay|reorder|burst)#[1-4] \(seed -?[0-9]+\): assert-failed: `)
	for _, v := range ex.Violations {
		if !line.MatchString(v) {
			t.Errorf("violation %q does not name its replay schedule", v)
		}
	}
	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}

// TestStressOp: the schedule-fuzzing sweep over the ported session
// module — a clean verdict on the ported program, the full sweep
// summary, and byte-identical findings on a repeat call (the grid is
// seeded, so the op is deterministic).
func TestStressOp(t *testing.T) {
	leakcheck.Check(t)
	_, c := startServer(t, Options{})
	mustOK(t, c.call(&Request{ID: "load", Op: "load", Name: "small.c", Source: smallSrc}))

	if r := c.call(&Request{ID: "s0", Op: "stress"}); r.OK || r.ErrKind != ErrBadRequest {
		t.Errorf("stress without entries: got ok=%t kind=%q, want bad_request", r.OK, r.ErrKind)
	}

	req := &Request{ID: "s1", Op: "stress", Entries: []string{"reader", "writer"}, Seeds: 20}
	s1 := mustOK(t, c.call(req))
	if s1.Stress == nil {
		t.Fatal("stress response lacks the sweep summary")
	}
	if s1.Verdict != "pass" {
		t.Errorf("ported program stressed %q; findings: %v", s1.Verdict, s1.Stress.Findings)
	}
	if s1.Stress.Schedules == 0 || s1.Stress.Steps == 0 || s1.Stress.Forwarded == 0 {
		t.Errorf("empty sweep summary: %+v", s1.Stress)
	}
	if s1.Executions != s1.Stress.Schedules {
		t.Errorf("Executions=%d != Schedules=%d", s1.Executions, s1.Stress.Schedules)
	}

	req2 := *req
	req2.ID = "s2"
	s2 := mustOK(t, c.call(&req2))
	if s2.Stress.Steps != s1.Stress.Steps || !reflect.DeepEqual(s2.Stress.Findings, s1.Stress.Findings) {
		t.Errorf("stress op not deterministic:\nfirst  %+v\nsecond %+v", s1.Stress, s2.Stress)
	}

	mustOK(t, c.call(&Request{ID: "bye", Op: "shutdown"}))
}
