// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget in a closed loop (one operation
// in flight, every library call at Workers: 1), checks the output of
// every operation, and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// measures once untraced and once with an obs.Provider attached, and the
// metrics are the per-layer set, partly read from the program's own spans
// (frontend.*, pipeline.*, serve.request, ...). Every layer is timed from
// outside with the benchmark's own clock around that layer's public entry
// point; no span is added to the program. README.md lists the workloads,
// the metrics, and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupMinReps and setupMinTotal bound how often a run repeats its
// set-up: at least five times, and until six seconds have been spent,
// so the median spans more than one of the host's slow or fast phases,
// which last seconds.
const (
	setupMinReps  = 5
	setupMaxReps  = 5000
	setupMinTotal = 6 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 7, "generator seed for the workload's inputs")
		seconds = flag.Int("seconds", 10, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
		root    = flag.String("root", ".", "root of the source tree being measured")
		out     = flag.String("out", "", "directory for the detailed report and the trace export")
	)
	flag.Parse()
	// Single-core cost is the primary metric: the library calls run at
	// Workers: 1, and one P makes the garbage collector share that core,
	// so an operation's time is its whole cost and peak memory does not
	// depend on how a collector on another CPU races the program.
	runtime.GOMAXPROCS(1)
	w := lookupWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be >= 1 and -trace 0 or 1")
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	res, err := run(w, cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res.Host = fingerprint(*root)
	if err := res.writeReport(cfg, w); err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res.summary(cfg.traced))
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type config struct {
	seed   int64
	budget time.Duration
	traced bool
	out    string
}

// result is everything one invocation measured: the contract metrics and
// the detailed report with the host fingerprint.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Host      host   `json:"host"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Errors holds the first few failure messages.
	Errors []string `json:"errors,omitempty"`
	// Ops counts the measured operations per pass.
	Ops map[string]int `json:"ops"`
	// EndToEnd and PerLayer are the contract metrics; Detail adds the
	// workload-specific figures behind them, in their natural units.
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Detail   map[string]metric `json:"detail"`
	// OpMS holds the untraced pass's operation latencies in order.
	OpMS []float64 `json:"op_ms"`
	// Outputs holds the hashes of the checked outputs.
	Outputs map[string]string `json:"outputs,omitempty"`
	// Trace is the exported Chrome trace of the traced pass.
	Trace string `json:"trace,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: failed operation: %v\n", r.Workload, err)
}

// absorb counts the checks a pass made during set-up: each is an
// operation too.
func (r *result) absorb(p *pass) {
	r.Attempted += p.attempted
	for _, err := range p.errs {
		r.fail(err)
	}
	p.attempted, p.errs = 0, nil
}

// summary is the contract line.
func (r *result) summary(traced bool) map[string]any {
	ms := r.EndToEnd
	if traced {
		ms = r.PerLayer
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	}
}

// writeReport prints every metric by name with its unit, followed by the
// host fingerprint, and saves the whole result as JSON under cfg.out.
func (r *result) writeReport(cfg config, w *workload) error {
	fmt.Printf("# perfbench %s seed=%d attempted=%d failed=%d ops=%v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Ops)
	fmt.Printf("# host num_cpu=%d gomaxprocs=%d go=%s revision=%s source_digest=%s\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Revision, r.Host.SourceDigest)
	for _, sec := range []struct {
		title string
		ms    map[string]metric
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}, {"detail", r.Detail}} {
		names := make([]string, 0, len(sec.ms))
		for n := range sec.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-10s %-28s %16.4f %s\n", sec.title, n, sec.ms[n].Value, sec.ms[n].Unit)
		}
	}
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fmt.Errorf("create report directory: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, boolInt(cfg.traced)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run sets the workload up several times (reporting the median set-up
// time), measures it untraced, and, for a traced run, once more with a
// tracing provider whose spans fill in the per-layer metrics.
func run(w *workload, cfg config) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Ops: map[string]int{}}

	plain := newPass(nil)
	runtime.GC()
	plain.startClock()
	var r runner
	var spent time.Duration
	for n := 0; n < setupMinReps || (spent < setupMinTotal && n < setupMaxReps); n++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		plain.tick(false)
		start := time.Now()
		var err error
		r, err = w.setup(plain, cfg.seed)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		plain.add("setup", ms(d))
	}
	runtime.GC()
	plain.tick(true)
	res.absorb(plain)

	budget, minOps := cfg.budget, w.minOps
	if cfg.traced {
		budget, minOps = budget/2, (minOps+1)/2
	}
	if err := measure(plain, r, budget, minOps, res, "untraced"); err != nil {
		return nil, err
	}

	res.EndToEnd = map[string]metric{
		"setup_s":  {median(plain.ms["setup"]) / 1e3, "s"},
		"op_ms":    {median(plain.ms["op"]), "ms"},
		"alloc_mb": {median(plain.mb["op"]), "MB"},
	}
	res.Detail = map[string]metric{
		"setup_reps":     {float64(len(plain.ms["setup"])), "count"},
		"setup_wall_s":   {median(plain.raw["setup"]) / 1e3, "s"},
		"op_wall_ms":     {median(plain.raw["op"]), "ms"},
		"host_speed":     {median(plain.factors), "ratio"},
		"host_speed_min": {quantile(plain.factors, 0), "ratio"},
		"host_speed_max": {quantile(plain.factors, 1), "ratio"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
	res.Outputs = plain.outputs
	res.OpMS = plain.ms["op"]
	w.detail(plain, res.Detail)
	if !cfg.traced {
		return res, nil
	}

	prov := obs.NewTracing()
	traced := newPass(prov)
	runtime.GC()
	traced.startClock()
	tr, err := w.setup(traced, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	traced.tick(true)
	res.absorb(traced)
	if err := measure(traced, tr, budget, minOps, res, "traced"); err != nil {
		return nil, err
	}
	data, err := obs.EncodeTrace(prov.Tracer)
	if err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	if err := obs.ValidateTrace(data); err != nil {
		res.fail(fmt.Errorf("trace export: %w", err))
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, fmt.Errorf("create trace directory: %w", err)
		}
		res.Trace = filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, cfg.seed))
		if err := os.WriteFile(res.Trace, data, 0o644); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	spans := analyzeTrace(prov.Tracer.Events())
	res.PerLayer = layerMetrics(plain, traced, spans)
	return res, nil
}

// measure runs operations until the budget is spent and at least minOps
// have run, then lets the workload make its closing checks.
func measure(p *pass, r runner, budget time.Duration, minOps int, res *result, label string) error {
	start := time.Now()
	n := 0
	for done := false; !done; {
		// Each operation starts from a collected heap, so garbage left by
		// the previous one is not charged to whichever operation happens
		// to trigger the next collection.
		runtime.GC()
		p.tick(false)
		p.opAlloc = 0
		d, err := r.op(p, n)
		n++
		res.Attempted++
		if err != nil {
			res.fail(err)
		}
		p.add("op", ms(d))
		p.mb["op"] = append(p.mb["op"], float64(p.opAlloc)/(1<<20))
		done = n >= minOps && time.Since(start) >= budget
	}
	runtime.GC()
	p.tick(true)
	if err := r.finish(p); err != nil {
		res.fail(err)
	}
	res.Ops[label] = n
	return r.close()
}
