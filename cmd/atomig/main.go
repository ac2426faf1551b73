// Command atomig is the porting tool: it compiles a MiniC source file
// (or a named corpus program) and applies the AtoMig pipeline, printing
// the porting report and, on request, the transformed IR.
//
// Usage:
//
//	atomig [flags] file.c
//	atomig [flags] -corpus ck_sequence
//
// Flags:
//
//	-level expl|spin|full   pipeline level (default full)
//	-naive                  apply the naïve all-SC strategy instead
//	-lasagne                apply the Lasagne-style explicit-fence strategy
//	-emit                   print the transformed module IR
//	-emit-orig              print the original module IR
//	-no-inline              disable the pre-analysis inliner
//	-j N                    pipeline worker count; the ported output is
//	                        byte-identical for every N (docs/PIPELINE.md)
//	-O                      after porting, run the checker-in-the-loop
//	                        weakening optimizer (docs/WEAKENING.md):
//	                        greedily relax orderings and delete fences,
//	                        keeping only what the model checker re-verifies;
//	                        needs a verification harness (-corpus or -entries)
//	-arch armv8|power|...   cost-model architecture for the -O report
//	-O-races=false          with -O: drop the race detector from the
//	                        verification loop (verdict-only acceptance,
//	                        for programs whose fingerprinted state space
//	                        is intractable)
//	-O-execs N              with -O: per-candidate execution budget
//	-explain-races          run the race detector on the UN-ported input
//	                        and map each race back to the global or
//	                        struct field the port should promote; with
//	                        -O, additionally notes which reported sites
//	                        the optimizer later weakened
//	-entries a,b            thread entry functions for -explain-races and
//	                        -O on file inputs (corpus programs use their
//	                        model-checking harness)
//	-serve                  run the incremental porting daemon on
//	                        stdin/stdout (docs/SERVE.md); -socket adds
//	                        a Unix socket listener, -queue bounds
//	                        admission, -deadline/-grace bound requests,
//	                        -http serves live telemetry (/metrics,
//	                        /healthz, net/http/pprof), -crash names the
//	                        flight-recorder dump file
//	-metrics/-trace/-log/-pprof
//	                        observability exports and live telemetry
//	                        (docs/OBSERVABILITY.md)
//
// Exit codes: 0 success, 2 usage or internal error (malformed input,
// port failure, -serve startup failure). Exit code 1 is reserved for
// tools that report analysis verdicts (atomig-run, atomig-mc);
// -explain-races is diagnostic output, not a verdict, and exits 0
// whether or not races were found.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stress"
	"repro/internal/transform"
	"repro/internal/vm"
	"repro/internal/weaken"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atomig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	level := fs.String("level", "full", "pipeline level: expl, spin, or full")
	naive := fs.Bool("naive", false, "apply the naïve all-SC strategy")
	lasagne := fs.Bool("lasagne", false, "apply the Lasagne-style strategy")
	emit := fs.Bool("emit", false, "print the transformed module IR")
	emitOrig := fs.Bool("emit-orig", false, "print the original module IR")
	noInline := fs.Bool("no-inline", false, "disable the pre-analysis inliner")
	corpusName := fs.String("corpus", "", "port a named corpus program instead of a file")
	list := fs.Bool("list", false, "list corpus programs and exit")
	out := fs.String("o", "", "write the transformed module to a .air file")
	o2 := fs.Bool("O2", false, "run the post-transformation optimizer (Figure 2)")
	oWeaken := fs.Bool("O", false, "after porting, weaken orderings the model checker proves unnecessary (docs/WEAKENING.md)")
	arch := fs.String("arch", weaken.DefaultArch, "cost-model architecture for -O: "+strings.Join(weaken.ArchNames(), ", "))
	oRaces := fs.Bool("O-races", true, "with -O: keep the race detector in the verification loop")
	oExecs := fs.Int("O-execs", 0, "with -O: per-candidate execution budget (0 = default)")
	oOracle := fs.String("O-oracle", "exhaustive", "with -O: verification oracle — exhaustive (checker-verified commits; large programs screen candidates with stress sweeps) or stress (every check a stress sweep; docs/STRESS.md)")
	oStressSeeds := fs.Int("O-stress-seeds", 0, "with -O-oracle stress: screening schedules per scheduler mode (0 = default)")
	oSample := fs.Float64("O-sample", 0, "with -O-oracle stress: location-sampling fraction (0 = observe everything)")
	explainRaces := fs.Bool("explain-races", false, "detect races in the un-ported input and explain what to promote")
	entries := fs.String("entries", "", "comma-separated thread entries for -explain-races and -O on file inputs")
	jobs := fs.Int("j", 1, "pipeline worker count (output is byte-identical for every value)")
	var of obs.CLIFlags
	of.Register(fs)
	serveMode := fs.Bool("serve", false, "run the incremental porting daemon on stdin/stdout (docs/SERVE.md)")
	socket := fs.String("socket", "", "with -serve: also listen on this Unix socket path")
	queue := fs.Int("queue", 8, "with -serve: admission queue depth (requests beyond it are shed)")
	deadline := fs.Duration("deadline", 30*time.Second, "with -serve: per-request deadline")
	grace := fs.Duration("grace", 2*time.Second, "with -serve: watchdog grace past the deadline")
	httpAddr := fs.String("http", "", "with -serve: serve live telemetry (/metrics, /healthz, net/http/pprof) on this address")
	crashPath := fs.String("crash", "", "with -serve: write flight-recorder dumps to this file on watchdog, panic, or overload")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *serveMode {
		return runServe(stdin, stdout, stderr, fs.Args(), serveConfig{
			socket: *socket, queue: *queue, deadline: *deadline, grace: *grace,
			jobs: *jobs, httpAddr: *httpAddr, crashPath: *crashPath, flags: &of,
		})
	}

	if *list {
		for _, p := range corpus.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", p.Name, p.Desc)
		}
		return 0
	}

	prov, err := of.Provider(false, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	// weakenOptions builds the -O weakener options from the flag group.
	weakenOptions := func() (weaken.Options, error) {
		entryList, err := weakenEntries(*corpusName, *entries)
		if err != nil {
			return weaken.Options{}, err
		}
		oracle, err := weaken.ParseOracleMode(*oOracle)
		if err != nil {
			return weaken.Options{}, err
		}
		wopts := weaken.DefaultOptions(entryList)
		wopts.Workers = *jobs
		wopts.Arch = *arch
		wopts.DetectRaces = *oRaces
		wopts.MaxExecs = *oExecs
		wopts.Oracle = oracle
		wopts.StressSeeds = *oStressSeeds
		wopts.StressSample = *oSample
		wopts.Obs = prov
		return wopts, nil
	}

	sp := prov.Track("pipeline").Begin("pipeline.parse")
	mod, err := loadModule(*corpusName, fs.Args(), *jobs, prov)
	sp.End()
	if err != nil {
		return fail(stderr, err)
	}

	if *explainRaces {
		// With -O the race advice is joined against the optimizer's
		// decisions on a ported clone, so a site the advice names and a
		// site the optimizer weakened can never silently disagree.
		var weakened []weaken.Decision
		if *oWeaken {
			wopts, err := weakenOptions()
			if err != nil {
				return fail(stderr, err)
			}
			if weakened, err = portAndWeaken(mod, wopts); err != nil {
				return fail(stderr, err)
			}
		}
		code := explain(stdout, stderr, mod, *corpusName, *entries, weakened, prov)
		if err := of.Close(prov); err != nil {
			return fail(stderr, err)
		}
		return code
	}
	if *emitOrig {
		fmt.Fprintln(stdout, mod.String())
	}

	switch {
	case *naive:
		n := transform.Naive(mod)
		expl, impl := transform.CountBarriers(mod)
		fmt.Fprintf(stdout, "naive: converted %d accesses to seq_cst (%d explicit, %d implicit barriers present)\n",
			n, expl, impl)
	case *lasagne:
		st := transform.LasagneStyle(mod)
		expl, impl := transform.CountBarriers(mod)
		fmt.Fprintf(stdout, "lasagne: inserted %d fences, elided %d (%d explicit, %d implicit barriers present)\n",
			st.FencesInserted, st.FencesElided, expl, impl)
	default:
		var wopts weaken.Options
		if *oWeaken {
			if wopts, err = weakenOptions(); err != nil {
				return fail(stderr, err)
			}
		}
		opts := atomig.DefaultOptions()
		opts.Inline = !*noInline
		switch *level {
		case "expl":
			opts.Level = atomig.LevelExplicit
		case "spin":
			opts.Level = atomig.LevelSpin
		case "full":
			opts.Level = atomig.LevelFull
		default:
			return fail(stderr, fmt.Errorf("unknown level %q", *level))
		}
		opts.Optimize = *o2
		opts.Obs = prov
		opts.Workers = *jobs
		rep, err := atomig.Port(mod, opts)
		if err != nil {
			return fail(stderr, err)
		}
		printReport(stdout, rep)
		if *o2 {
			fmt.Fprintf(stdout, "  optimizer: folded %d, hoisted %d, removed %d\n",
				rep.OptFolded, rep.OptHoisted, rep.OptRemoved)
		}
		if *oWeaken {
			wres, err := weaken.Optimize(mod, wopts)
			if err != nil {
				return fail(stderr, err)
			}
			printWeakenReport(stdout, wres)
		}
	}
	if *emit {
		fmt.Fprintln(stdout, mod.String())
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(mod.String()), 0o644); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if err := of.Close(prov); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// explain runs the happens-before detector over the un-ported module
// under WMM across every scheduler mode and renders the per-location
// promotion advice. This is the migration feedback loop: run it before
// porting to see what the pipeline must fix, or on a hand-ported tree
// to find the promotions it missed. When -O also ran, the weakening
// decisions are joined in so advice about a location mentions that the
// port's promotion there was later relaxed by the optimizer.
func explain(stdout, stderr io.Writer, mod *ir.Module, corpusName, entries string, weakened []weaken.Decision, prov *obs.Provider) int {
	entryList, err := weakenEntries(corpusName, entries)
	if err != nil {
		return fail(stderr, fmt.Errorf("-explain-races needs thread entries (use -entries a,b or a corpus program with a model-checking harness)"))
	}
	res, err := stress.Sweep(mod, stress.Options{
		Model:    memmodel.ModelWMM,
		Entries:  entryList,
		Seeds:    4,
		BaseSeed: 1,
		Sample:   1,
		MaxSteps: vm.DefaultMaxSteps,
		Obs:      prov,
	})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "race sweep: %d executions, %d distinct race(s)\n",
		res.Schedules, res.Detector.Races())
	exp := atomig.ExplainRaces(mod, res.Races())
	if len(weakened) > 0 {
		notes := make([]atomig.WeakenedNote, 0, len(weakened))
		for _, d := range weakened {
			notes = append(notes, atomig.WeakenedNote{
				Loc: d.Loc, Site: d.Site, From: d.From, To: d.To,
			})
		}
		exp.AnnotateWeakenings(notes)
	}
	fmt.Fprint(stdout, exp)
	return 0
}

// weakenEntries resolves the verification harness for -O and
// -explain-races: explicit -entries wins, else the corpus program's
// model-checking harness.
func weakenEntries(corpusName, entries string) ([]string, error) {
	if entries != "" {
		return strings.Split(entries, ","), nil
	}
	if corpusName != "" {
		if p := corpus.Get(corpusName); p != nil && len(p.MCEntries) > 0 {
			return p.MCEntries, nil
		}
	}
	return nil, fmt.Errorf("no verification harness: use -entries a,b or a corpus program with a model-checking harness")
}

// portAndWeaken ports a clone of mod and weakens it, returning the
// accepted decisions — used by -explain-races -O, which needs the
// optimizer's provenance without giving up the un-ported module the
// race sweep runs on.
func portAndWeaken(mod *ir.Module, wopts weaken.Options) ([]weaken.Decision, error) {
	opts := atomig.DefaultOptions()
	opts.Workers = wopts.Workers
	opts.Obs = wopts.Obs
	ported, _, err := atomig.PortClone(mod, opts)
	if err != nil {
		return nil, err
	}
	wres, err := weaken.Optimize(ported, wopts)
	if err != nil {
		return nil, err
	}
	return wres.Decisions, nil
}

// printWeakenReport renders the -O report: what the optimizer changed,
// what it cost before and after, and the per-site provenance. Wall
// times are deliberately absent — the report is byte-stable for a
// given module and options (golden-tested).
func printWeakenReport(w io.Writer, res *weaken.Result) {
	fmt.Fprintf(w, "weakening report for %s (arch %s, baseline %s)\n", res.Module, res.Arch, res.Verdict)
	if res.Reason != "" {
		fmt.Fprintf(w, "  not optimized: %s\n", res.Reason)
		return
	}
	fmt.Fprintf(w, "  candidates tried:          %d (%d accepted, %d rejected)\n",
		res.Tried, res.Accepted, res.Rejected)
	fmt.Fprintf(w, "  rounds to fixpoint:        %d\n", res.Rounds)
	fmt.Fprintf(w, "  fences deleted:            %d\n", res.FencesDeleted)
	fmt.Fprintf(w, "  functions in scope:        %d (%d unreachable, kept at ported strength)\n",
		res.FuncsInScope, res.FuncsSkipped)
	fmt.Fprintf(w, "  checker re-verifications:  %d\n", res.MCChecks)
	switch {
	case res.Oracle != "":
		fmt.Fprintf(w, "  oracle:                    %s (%d stress checks, %d schedules)\n",
			res.Oracle, res.StressChecks, res.StressSchedules)
	case res.StressChecks > 0:
		fmt.Fprintf(w, "  stress screens:            %d (%d schedules)\n",
			res.StressChecks, res.StressSchedules)
	}
	fmt.Fprintf(w, "  static cost (%s):       %d -> %d cycles (-%.1f%%)\n",
		res.Arch, res.CostBefore, res.CostAfter, res.Reduction())
	for _, d := range res.Decisions {
		fmt.Fprintf(w, "  weakened: %s\n", d)
	}
}

func loadModule(corpusName string, args []string, jobs int, prov *obs.Provider) (*ir.Module, error) {
	if corpusName != "" {
		p := corpus.Get(corpusName)
		if p == nil {
			return nil, fmt.Errorf("unknown corpus program %q (use -list)", corpusName)
		}
		return p.Compile()
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: atomig [flags] file.c|file.air (or -corpus name, or -list)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	// .air files are textual IR; anything else is MiniC source.
	if strings.HasSuffix(args[0], ".air") {
		return ir.ParseModule(string(src))
	}
	// -j reaches the frontend too: chunked parsing and per-function
	// lowering, byte-identical output at every count (docs/PIPELINE.md).
	res, err := minic.CompileOpts(args[0], string(src), minic.Options{Workers: jobs, Obs: prov})
	if err != nil {
		return nil, err
	}
	return res.Module, nil
}

func printReport(w io.Writer, rep *atomig.Report) {
	fmt.Fprintf(w, "atomig report for %s (level %s)\n", rep.Module, rep.Level)
	fmt.Fprintf(w, "  spinloops detected:        %d\n", rep.Spinloops)
	fmt.Fprintf(w, "  optimistic loops detected: %d\n", rep.Optiloops)
	fmt.Fprintf(w, "  call sites inlined:        %d\n", rep.FunctionsInlined)
	fmt.Fprintf(w, "  volatile accesses -> SC:   %d\n", rep.VolatileConverted)
	fmt.Fprintf(w, "  atomics upgraded to SC:    %d\n", rep.AtomicUpgraded)
	fmt.Fprintf(w, "  spin controls marked:      %d\n", rep.SpinControlsMarked)
	fmt.Fprintf(w, "  opt controls marked:       %d\n", rep.OptControlsMarked)
	fmt.Fprintf(w, "  sticky buddies explored:   %d\n", rep.BuddiesExplored)
	fmt.Fprintf(w, "  alias classes merged:      %d\n", rep.AliasMerges)
	fmt.Fprintf(w, "  sticky buddies converted:  %d\n", rep.StickyMarked)
	fmt.Fprintf(w, "  implicit barriers added:   %d (%d -> %d)\n",
		rep.ImplicitAdded, rep.ImplicitBefore, rep.ImplicitAfter)
	fmt.Fprintf(w, "  explicit fences added:     %d (%d -> %d)\n",
		rep.ExplicitAdded, rep.ExplicitBefore, rep.ExplicitAfter)
	fmt.Fprintf(w, "  porting time:              %s\n", rep.Duration)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "atomig:", err)
	return 2
}

// serveConfig carries the -serve flag group.
type serveConfig struct {
	socket    string
	queue     int
	deadline  time.Duration
	grace     time.Duration
	jobs      int
	httpAddr  string
	crashPath string
	flags     *obs.CLIFlags
}

// runServe runs the incremental porting daemon: the JSON protocol on
// stdin/stdout, plus an optional Unix socket. Startup failures
// (invalid flags, un-bindable socket, stray positional arguments) exit
// 2 before any request is served; a clean drain exits 0.
func runServe(stdin io.Reader, stdout, stderr io.Writer, args []string, cfg serveConfig) int {
	if len(args) != 0 {
		return fail(stderr, fmt.Errorf("-serve takes no positional arguments (got %q); load modules via the protocol", args))
	}
	if cfg.queue <= 0 {
		return fail(stderr, fmt.Errorf("-serve: -queue must be positive, got %d", cfg.queue))
	}
	if cfg.deadline <= 0 || cfg.grace <= 0 {
		return fail(stderr, fmt.Errorf("-serve: -deadline and -grace must be positive"))
	}
	// -http needs a real provider so /metrics serves the daemon's
	// registry (not serve's private fallback).
	prov, err := cfg.flags.Provider(cfg.httpAddr != "", stderr)
	if err != nil {
		return fail(stderr, err)
	}
	srv := serve.New(serve.Options{
		QueueDepth: cfg.queue,
		Deadline:   cfg.deadline,
		Grace:      cfg.grace,
		Workers:    cfg.jobs,
		Obs:        prov,
		CrashPath:  cfg.crashPath,
	})

	if cfg.httpAddr != "" {
		addr, err := srv.ListenHTTP(cfg.httpAddr)
		if err != nil {
			return fail(stderr, fmt.Errorf("-serve: -http: %w", err))
		}
		// Announced on stderr so scripts binding ":0" can parse the port.
		fmt.Fprintf(stderr, "http: listening on %s\n", addr)
	}

	listenErr := make(chan error, 1)
	if cfg.socket != "" {
		l, err := serve.ListenUnix(cfg.socket)
		if err != nil {
			return fail(stderr, fmt.Errorf("-serve: %w", err))
		}
		go func() { listenErr <- srv.ServeListener(l) }()
	}

	// The stdio connection drives the daemon's lifetime: EOF or a
	// shutdown op drains and exits.
	err = srv.ServeConn(stdioConn{stdin, stdout})
	srv.Shutdown()
	srv.Drain()
	if cfg.socket != "" {
		if lerr := <-listenErr; lerr != nil && err == nil {
			err = lerr
		}
		os.Remove(cfg.socket)
	}
	if ferr := cfg.flags.Close(prov); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

// stdioConn glues stdin/stdout into the io.ReadWriter ServeConn wants.
type stdioConn struct {
	io.Reader
	io.Writer
}
