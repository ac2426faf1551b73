// Command atomig-run executes a corpus program (or MiniC/.air file) on
// the VM under a chosen memory model — the quickest way to watch a
// program behave, misbehave, or cost cycles. It runs one seeded
// schedule; `atomig-mc -stress` sweeps the grid of them, and any
// schedule a sweep reports replays here from its mode and seed.
//
// Usage:
//
//	atomig-run -corpus memcached                  # perf harness, SC
//	atomig-run -corpus mp -model wmm -seed 13     # hunt a weak behavior
//	atomig-run -corpus mp -model wmm -sched starve -watchdog
//	atomig-run -corpus memcached -port -profile   # port, then profile
//	atomig-run -corpus mp -mc -model wmm -sched delay -seed <seed>   # replay a sweep finding
//	atomig-run -entries main_thread file.c
//
// Exit codes: 0 the execution completed, 1 the execution failed (assert
// failure, deadlock, or step-budget exhaustion), 2 usage or internal
// error, 3 the execution completed but -race reported data races (an
// execution failure wins when both apply).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/race"
	"repro/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atomig-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpusName := fs.String("corpus", "", "run a named corpus program")
	model := fs.String("model", "sc", "memory model: sc, tso, or wmm")
	entries := fs.String("entries", "", "comma-separated thread entry functions")
	seed := fs.Int64("seed", 1, "scheduler seed")
	sched := fs.String("sched", "random", "scheduler mode: random, starve, delay, reorder, burst")
	watchdog := fs.Bool("watchdog", false, "diagnose livelocks when the step budget is exhausted")
	maxSteps := fs.Int64("max-steps", 0, "instruction budget (0 = default)")
	port := fs.Bool("port", false, "apply the atomig pipeline before running")
	o2 := fs.Bool("O2", false, "optimize (with -port: after porting)")
	profile := fs.Bool("profile", false, "print the per-function cycle profile")
	detectRaces := fs.Bool("race", false, "attach the happens-before race detector and report data races")
	mcHarness := fs.Bool("mc", false, "use the corpus program's model-checking harness instead of the perf harness")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "parallel frontend workers when compiling a .c file")
	var of obs.CLIFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prov, err := of.Provider(false, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	defer func() {
		if err := of.Close(prov); err != nil {
			fmt.Fprintln(stderr, "atomig-run:", err)
		}
	}()

	sp := prov.Track("pipeline").Begin("pipeline.parse")
	mod, entryList, maxDefault, err := load(*corpusName, *entries, *mcHarness, fs.Args(), *workers, prov)
	sp.End()
	if err != nil {
		return fail(stderr, err)
	}
	if *maxSteps == 0 {
		*maxSteps = maxDefault
	}
	mode, err := vm.ParseSchedMode(*sched)
	if err != nil {
		return fail(stderr, err)
	}
	if *port {
		opts := atomig.DefaultOptions()
		opts.Optimize = *o2
		opts.Obs = prov
		rep, err := atomig.Port(mod, opts)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "ported: %d spinloops, %d optimistic, +%d implicit, +%d explicit\n",
			rep.Spinloops, rep.Optiloops, rep.ImplicitAdded, rep.ExplicitAdded)
	} else if *o2 {
		st := opt.Optimize(mod)
		fmt.Fprintf(stdout, "optimized: folded %d, hoisted %d, removed %d\n",
			st.Folded, st.Hoisted, st.DeadRemoved+st.BlocksRemoved)
	}

	var mm memmodel.Model
	switch *model {
	case "sc":
		mm = memmodel.ModelSC
	case "tso":
		mm = memmodel.ModelTSO
	case "wmm":
		mm = memmodel.ModelWMM
	default:
		return fail(stderr, fmt.Errorf("unknown model %q", *model))
	}

	var det *race.Detector
	if *detectRaces {
		det = race.New(mm, race.Options{Obs: prov})
	}
	vopts := vm.Options{
		Model: mm, Entries: entryList,
		Controller: vm.NewScheduler(mode, *seed),
		MaxSteps:   *maxSteps, Profile: *profile, Watchdog: *watchdog,
		Obs: prov,
	}
	if det != nil {
		vopts.Hook = det
	}
	res, err := vm.Run(mod, vopts)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "status=%s sched=%s steps=%d makespan=%d cycles (total %d)\n",
		res.Status, mode, res.Steps, res.MaxCycles, res.TotalCycles)
	if res.FailMsg != "" {
		fmt.Fprintln(stdout, res.FailMsg)
	}
	if len(res.Livelock) > 0 {
		fmt.Fprint(stdout, vm.FormatLivelock(res.Livelock))
	}
	c := res.Counters
	fmt.Fprintf(stdout, "loads=%d/%d stores=%d/%d rmw=%d fences=%d (non-atomic/atomic)\n",
		c.NonAtomicLoads, c.AtomicLoads, c.NonAtomicStores, c.AtomicStores, c.RMWs, c.Fences)
	if len(res.Output) > 0 {
		fmt.Fprintf(stdout, "output: %v\n", res.Output)
	}
	if *profile {
		type fc struct {
			name   string
			cycles int64
		}
		var fns []fc
		for name, cycles := range res.FuncCycles {
			fns = append(fns, fc{name, cycles})
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].cycles > fns[j].cycles })
		fmt.Fprintln(stdout, "hottest functions:")
		for i, f := range fns {
			if i == 10 {
				break
			}
			fmt.Fprintf(stdout, "  %-24s %12d cycles (%4.1f%%)\n",
				f.name, f.cycles, 100*float64(f.cycles)/float64(res.TotalCycles))
		}
	}
	if det != nil {
		if det.Races() == 0 {
			fmt.Fprintln(stdout, "races: none")
		} else {
			fmt.Fprintf(stdout, "races: %d distinct\n", det.Races())
			fmt.Fprint(stdout, race.FormatReports(det.Reports()))
		}
	}
	if res.Status != vm.StatusDone {
		return 1
	}
	if det != nil && det.Races() > 0 {
		return 3
	}
	return 0
}

func load(corpusName, entries string, mcHarness bool, args []string, jobs int, prov *obs.Provider) (*ir.Module, []string, int64, error) {
	if corpusName != "" {
		p := corpus.Get(corpusName)
		if p == nil {
			return nil, nil, 0, fmt.Errorf("unknown corpus program %q", corpusName)
		}
		m, err := p.Compile()
		if err != nil {
			return nil, nil, 0, err
		}
		list := p.PerfEntries
		if mcHarness || len(list) == 0 {
			list = p.MCEntries
		}
		if entries != "" {
			list = strings.Split(entries, ",")
		}
		if len(list) == 0 {
			return nil, nil, 0, fmt.Errorf("program %q has no harness; pass -entries", corpusName)
		}
		return m, list, p.PerfSteps, nil
	}
	if len(args) != 1 || entries == "" {
		return nil, nil, 0, fmt.Errorf("usage: atomig-run -corpus name | -entries a,b file.c")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, nil, 0, err
	}
	if strings.HasSuffix(args[0], ".air") {
		m, err := ir.ParseModule(string(src))
		return m, strings.Split(entries, ","), 0, err
	}
	// -j reaches the frontend too; the module is byte-identical for
	// every worker count.
	res, err := minic.CompileOpts(args[0], string(src), minic.Options{Workers: jobs, Obs: prov})
	if err != nil {
		return nil, nil, 0, err
	}
	return res.Module, strings.Split(entries, ","), 0, nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "atomig-run:", err)
	return 2
}
