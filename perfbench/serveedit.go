package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/serve"
)

// serveEditLines sizes the daemon's module: large enough that a warm
// port is mostly cache replay, small enough for a hundred edit rounds
// per pass.
const serveEditLines = 8_000

// serveEdit drives an in-process daemon over its wire protocol. Load and
// a cold port are set-up; each operation is one round of a one-function
// edit (a write: delta plus snapshot rebuild) and a cache-warm port (a
// read).
var serveEdit = &workload{
	name:   "serve-edit",
	minOps: 100,
	setup:  setupServeEdit,
	detail: func(p *pass, d map[string]metric) {
		d["edit_ms_p50"] = metric{median(p.ms["serve.edit"]), "ms"}
		d["edit_ms_p90"] = metric{quantile(p.ms["serve.edit"], 0.9), "ms"}
		d["report_ms_p50"] = metric{median(p.ms["serve.port"]), "ms"}
		d["report_ms_p90"] = metric{quantile(p.ms["serve.port"], 0.9), "ms"}
	},
}

type serveEditRun struct {
	cl *client
	// base is the module as loaded; its filler functions donate the
	// bodies the rounds edit in.
	base    *ir.Module
	fillers int
}

func setupServeEdit(p *pass, seed int64) (runner, error) {
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("serve-edit", serveEditLines, seed))
	// The byte-identity reference: what the command-line path renders.
	res, _, err := p.compile("serve-edit.c", src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if _, _, err := p.port(res.Module); err != nil {
		return nil, fmt.Errorf("port: %w", err)
	}
	ref := res.Module.String()

	r := &serveEditRun{cl: dial(serve.New(serve.Options{Workers: 1, Obs: p.prov}))}
	if _, err := r.call(p, &serve.Request{Op: "load", Name: "serve-edit.c", Source: src}); err != nil {
		return nil, closeAfter(r, err)
	}
	cold, err := r.call(p, &serve.Request{Op: "port", Emit: true})
	if err != nil {
		return nil, closeAfter(r, err)
	}
	if cold.Text != ref {
		p.check(fmt.Errorf("cold port differs from the command-line port (%d vs %d bytes)", len(cold.Text), len(ref)))
	} else {
		p.check(nil)
	}
	dump, err := r.call(p, &serve.Request{Op: "dump"})
	if err != nil {
		return nil, closeAfter(r, err)
	}
	if r.base, err = ir.ParseModule(dump.Text); err != nil {
		return nil, closeAfter(r, fmt.Errorf("parse dump: %w", err))
	}
	for r.base.Func(filler(r.fillers)) != nil {
		r.fillers++
	}
	if r.fillers < 2 {
		return nil, closeAfter(r, fmt.Errorf("module has %d filler functions, need 2", r.fillers))
	}
	return r, nil
}

func filler(i int) string { return fmt.Sprintf("lg_compute%d", i) }

func closeAfter(r runner, err error) error {
	if cerr := r.close(); cerr != nil {
		return fmt.Errorf("%w (close: %v)", err, cerr)
	}
	return err
}

// op is round i: filler t gets the original body of filler t+k, where k
// grows each time the rounds wrap around, so every edit is new content
// and exactly one function misses the detection cache.
func (r *serveEditRun) op(p *pass, i int) (time.Duration, error) {
	t, k := i%r.fillers, 1+i/r.fillers
	donor := (t + k) % r.fillers
	delta := strings.Replace(ir.FuncString(r.base.Func(filler(donor))),
		"@"+filler(donor)+"(", "@"+filler(t)+"(", 1)

	before := allocated()
	start := time.Now()
	_, err := r.call(p, &serve.Request{Op: "edit", Replace: []string{delta}})
	de := time.Since(start)
	if err != nil {
		return de, err
	}
	start = time.Now()
	resp, err := r.call(p, &serve.Request{Op: "port"})
	dp := time.Since(start)
	p.allocSince("", before)
	round := de + dp
	p.add("serve.edit", ms(de))
	p.add("serve.port", ms(dp))
	if err != nil {
		return round, err
	}
	rep := resp.Report
	p.count["serve.cache_hits"] += float64(rep.CacheHits)
	p.count["serve.cache_misses"] += float64(rep.CacheMisses)
	p.portReport(rep)
	if rep.CacheMisses != 1 || rep.CacheHits == 0 {
		return round, fmt.Errorf("round %d: port after edit had %d misses and %d hits, want 1 miss", i, rep.CacheMisses, rep.CacheHits)
	}
	if i == 0 {
		return round, r.identical(p)
	}
	return round, nil
}

// finish checks the last round like the first.
func (r *serveEditRun) finish(p *pass) error { return r.identical(p) }

// identical checks that the daemon's port of its current module is byte
// for byte the command-line port of the same module, as dumped.
func (r *serveEditRun) identical(p *pass) error {
	dump, err := r.call(p, &serve.Request{Op: "dump"})
	if err != nil {
		return err
	}
	m, err := ir.ParseModule(dump.Text)
	if err != nil {
		return fmt.Errorf("parse dump: %w", err)
	}
	opts := atomig.DefaultOptions()
	opts.Workers = 1
	if _, err := atomig.Port(m, opts); err != nil {
		return fmt.Errorf("reference port: %w", err)
	}
	got, err := r.call(p, &serve.Request{Op: "port", Emit: true})
	if err != nil {
		return err
	}
	if want := m.String(); got.Text != want {
		return fmt.Errorf("daemon port differs from the command-line port of the dumped module (%d vs %d bytes)", len(got.Text), len(want))
	}
	return nil
}

func (r *serveEditRun) call(p *pass, req *serve.Request) (*serve.Response, error) {
	resp, err := r.cl.call(req)
	if err != nil {
		p.count["serve.requests_failed"]++
	}
	return resp, err
}

func (r *serveEditRun) close() error { return r.cl.close() }

// client is one protocol connection to an in-process server over a pair
// of pipes, with one request in flight at a time.
type client struct {
	w    *io.PipeWriter // requests, read by the server
	r    *bufio.Reader  // responses
	rEnd *io.PipeReader
	done chan error // the server loop's return
	seq  int
}

func dial(srv *serve.Server) *client {
	respR, respW := io.Pipe()
	reqR, reqW := io.Pipe()
	c := &client{w: reqW, r: bufio.NewReaderSize(respR, 1<<20), rEnd: respR, done: make(chan error, 1)}
	go func() {
		err := srv.ServeConn(struct {
			io.Reader
			io.Writer
		}{reqR, respW})
		reqR.Close()
		respW.Close()
		c.done <- err
	}()
	return c
}

func (c *client) call(req *serve.Request) (*serve.Response, error) {
	c.seq++
	req.ID = fmt.Sprintf("q%d", c.seq)
	line, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%s request: %w", req.Op, err)
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("%s request: %w", req.Op, err)
	}
	data, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("%s response: %w", req.Op, err)
	}
	var resp serve.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("%s response: %w", req.Op, err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("%s response carries id %q, want %q", req.Op, resp.ID, req.ID)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("%s request failed: %s: %s", req.Op, resp.ErrKind, resp.Error)
	}
	return &resp, nil
}

// close shuts the server down (it drains first), ends the connection and
// waits for the server loop to return.
func (c *client) close() error {
	_, err := c.call(&serve.Request{Op: "shutdown"})
	c.w.Close()
	c.rEnd.Close()
	if serr := <-c.done; err == nil {
		err = serr
	}
	return err
}
