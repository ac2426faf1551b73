// Command atomig-mc model-checks a corpus program (or MiniC/.air file)
// under a chosen memory model, optionally after porting it — the
// GenMC-style verification flow of the paper's Table 2.
//
// Usage:
//
//	atomig-mc -corpus mp -model wmm
//	atomig-mc -corpus mp -model wmm -port
//	atomig-mc -model tso -entries reader,writer file.c
//
// -j N explores with N workers splitting the depth-first frontier
// (default GOMAXPROCS). On a fully explored state space the verdict,
// the violations and the race reports are the same for every N; -j 1
// walks the plain depth-first search. A budget-exhausted run prints one
// resume token per unexplored frontier fragment, comma-separated, and
// -resume takes the list back.
//
// With -stress the exhaustive exploration is replaced by the
// schedule-fuzzing stress engine (docs/STRESS.md): a seeded sweep of
// controlled-random schedules with the race detector sampling -sample
// of the plain locations — no verdict proof, but production-scale
// throughput, under -model tso or wmm. It is the one schedule-sweep
// CLI; atomig-run replays any single schedule it reports. -minimize
// reduces the first race found to a litmus-sized program and confirms
// it exhaustively:
//
//	atomig-mc -stress -seeds 500 -sample 0.25 -j 8 -entries t0,t1 big.c
//	atomig-mc -stress -minimize -corpus seqlock-gap
//
// Exit codes: 0 the program verified, 1 a violation was found, 2 usage
// or internal error, 3 the exploration budget was exhausted before a
// verdict (verdict unknown; a -resume token is printed so a later run
// can continue the exploration), 4 race detection was on and the
// program has a data race (but no outright violation, which wins).
// Under -stress the same codes describe witnessed findings: 1 a
// schedule violated an assertion, 4 a race was detected, 0 the sweep
// was clean (which bounds nothing beyond the schedules run).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/stress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atomig-mc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpusName := fs.String("corpus", "", "model-check a named corpus program")
	model := fs.String("model", "wmm", "memory model: sc, tso, or wmm")
	port := fs.Bool("port", false, "apply the full atomig pipeline first")
	level := fs.String("level", "full", "pipeline level when porting: expl, spin, full")
	entries := fs.String("entries", "", "comma-separated thread entry functions (files only)")
	budget := fs.Duration("budget", 10*time.Second, "exploration time budget")
	maxExecs := fs.Int("max-execs", 1_000_000, "maximum explored executions")
	cex := fs.Bool("cex", false, "print a counterexample trace per violation")
	detectRaces := fs.Bool("race", false, "attach the happens-before race detector; races become a verdict")
	stats := fs.Bool("stats", false, "print a human-readable exploration summary")
	resume := fs.String("resume", "", "resume token(s) from a prior budget-exhausted run (comma-separated)")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "exploration workers splitting the depth-first frontier (1 = one worker, the plain depth-first search)")
	stressMode := fs.Bool("stress", false, "schedule-fuzzing stress sweep instead of exhaustive exploration (docs/STRESS.md)")
	seeds := fs.Int("seeds", 256, "stress: schedules per scheduler mode")
	sample := fs.Float64("sample", 1, "stress: fraction of plain locations the race detector observes (0,1]")
	baseSeed := fs.Int64("base-seed", 1, "stress: base seed anchoring the schedule grid (replay = same base seed)")
	minimize := fs.Bool("minimize", false, "stress: reduce the first race found to a litmus-sized program and confirm it exhaustively")
	var of obs.CLIFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// -stats also reads the registry, so it forces a provider even when
	// no export file was requested.
	prov, err := of.Provider(*stats, stderr)
	if err != nil {
		return fail(stderr, err)
	}

	mod, entryList, err := load(*corpusName, *entries, fs.Args(), *workers, prov)
	if err != nil {
		return fail(stderr, err)
	}

	if *port {
		opts := atomig.DefaultOptions()
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
		opts.Obs = prov
		rep, err := atomig.Port(mod, opts)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "ported: %d spinloops, %d optimistic loops, +%d implicit, +%d explicit barriers\n",
			rep.Spinloops, rep.Optiloops, rep.ImplicitAdded, rep.ExplicitAdded)
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

	if *workers < 1 {
		return fail(stderr, fmt.Errorf("-j %d: need at least one worker", *workers))
	}
	if *stressMode {
		if mm == memmodel.ModelSC {
			// stress.Options reads the zero Model as its WMM default.
			return fail(stderr, fmt.Errorf("-stress sweeps run under -model tso or wmm, not sc"))
		}
		code := runStress(stdout, stderr, mod, mm, entryList,
			*seeds, *sample, *baseSeed, *workers, *minimize, prov)
		if err := of.Close(prov); err != nil {
			return fail(stderr, err)
		}
		return code
	}

	opts := mc.Options{
		Model:         mm,
		Entries:       entryList,
		TimeBudget:    *budget,
		MaxExecutions: *maxExecs,
		Traces:        *cex,
		DetectRaces:   *detectRaces,
		Workers:       *workers,
		Obs:           prov,
	}
	if *resume != "" {
		for _, tok := range strings.Split(*resume, ",") {
			token, err := mc.DecodeResume(strings.TrimSpace(tok))
			if err != nil {
				return fail(stderr, err)
			}
			opts.Resume = append(opts.Resume, token)
		}
	}
	res, err := mc.Check(mod, opts)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "model=%s verdict=%s executions=%d pruned=%d truncated=%d states=%d frontier=%d\n",
		mm, res.Verdict, res.Executions, res.Pruned, res.Truncated, res.States, res.Frontier)
	if res.Reason != "" {
		fmt.Fprintf(stdout, "reason: %s\n", res.Reason)
	}
	if *stats {
		printStats(stdout, res, prov.Snapshot())
	}
	if *cex {
		for _, ce := range res.Counterexamples {
			fmt.Fprint(stdout, ce)
		}
	} else {
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "violation: %s\n", v)
		}
	}
	if *detectRaces {
		if len(res.Races) == 0 {
			fmt.Fprintln(stdout, "races: none")
		}
		for _, r := range res.Races {
			fmt.Fprint(stdout, r)
		}
		if *cex {
			for _, w := range res.RaceWitnesses {
				fmt.Fprint(stdout, w)
			}
		}
	}
	if err := of.Close(prov); err != nil {
		return fail(stderr, err)
	}
	switch res.Verdict {
	case mc.VerdictFail:
		return 1
	case mc.VerdictUnknown:
		if len(res.Resume) > 0 {
			encoded := make([]string, len(res.Resume))
			for i, tok := range res.Resume {
				encoded[i] = tok.Encode()
			}
			fmt.Fprintf(stdout, "resume=%s\n", strings.Join(encoded, ","))
		}
		return 3
	case mc.VerdictRace:
		return 4
	}
	return 0
}

// runStress drives the schedule-fuzzing sweep and, on request, the
// race minimizer. The printed findings carry their schedule provenance
// (mode, ordinal, seed) — the whole reproduction recipe.
func runStress(stdout, stderr io.Writer, mod *ir.Module, mm memmodel.Model,
	entries []string, seeds int, sample float64, baseSeed int64,
	workers int, minimize bool, prov *obs.Provider) int {
	res, err := stress.Sweep(mod, stress.Options{
		Model:    mm,
		Entries:  entries,
		Seeds:    seeds,
		BaseSeed: baseSeed,
		Sample:   sample,
		Workers:  workers,
		Obs:      prov,
	})
	if err != nil {
		return fail(stderr, err)
	}
	rate := float64(res.Schedules)
	if s := res.Elapsed.Seconds(); s > 0 {
		rate /= s
	}
	fmt.Fprintf(stdout, "model=%s stress schedules=%d steps=%d rate=%.0f/s step_limited=%d forwarded=%d sampled_out=%d\n",
		mm, res.Schedules, res.Steps, rate, res.StepLimited, res.Forwarded, res.Skipped)
	for _, f := range res.Findings {
		fmt.Fprintf(stdout, "finding: %s\n", f)
	}
	races := res.Races()
	if len(races) == 0 {
		fmt.Fprintln(stdout, "races: none")
	}
	for _, r := range races {
		fmt.Fprint(stdout, r)
	}

	if minimize {
		var target *stress.Finding
		for i := range res.Findings {
			if res.Findings[i].Kind == stress.FindingRace {
				target = &res.Findings[i]
				break
			}
		}
		if target == nil {
			fmt.Fprintln(stdout, "minimize: no race finding to reduce")
		} else {
			mres, err := stress.Minimize(mod, stress.MinimizeOptions{
				Entries: entries,
				Target:  target.Report,
				Workers: workers,
				Obs:     prov,
			})
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "minimized: %d/%d funcs, %d/%d instrs (%d reductions, %d oracle checks)\n",
				mres.Funcs, mres.OrigFuncs, mres.Instrs, mres.OrigInstrs, mres.Reductions, mres.Checks)
			fmt.Fprintf(stdout, "reproduce: %s\n", mres.Schedule)
			if mres.Confirm != nil {
				fmt.Fprintf(stdout, "confirmed: verdict=%s executions=%d\n",
					mres.Confirm.Verdict, mres.Confirm.Executions)
			}
			fmt.Fprint(stdout, mres.Module.String())
		}
	}

	switch {
	case len(res.Violations()) > 0:
		return 1
	case len(races) > 0:
		return 4
	}
	return 0
}

// printStats renders the exploration summary in prose: what was
// explored, how much the caches saved, and how complete the claim is.
// The numbers come from the metrics-registry snapshot (the same ones
// -metrics exports); only wall-clock, worker count and the frontier —
// which are per-run facts, not metrics — read from the Result.
func printStats(w io.Writer, res *mc.Result, snap obs.Snapshot) {
	c := snap.Counters
	fmt.Fprintf(w, "explored %d executions in %v with %d worker(s)\n",
		c["mc.executions_explored"], res.Elapsed.Round(time.Millisecond), res.Workers)
	fmt.Fprintf(w, "  distinct states:    %d\n", c["mc.states_recorded"])
	fmt.Fprintf(w, "  pruned re-converging executions: %d\n", c["mc.executions_pruned"])
	fmt.Fprintf(w, "  step-truncated executions:       %d\n", c["mc.executions_truncated"])
	fmt.Fprintf(w, "  VM reuse: %d resets / %d fresh allocations\n", c["mc.vms_reset"], c["mc.vms_allocated"])
	fmt.Fprintf(w, "  contended visited-shard locks:   %d\n", c["mc.shard_locks_contended"])
	if res.Frontier > 0 {
		fmt.Fprintf(w, "  unexplored frontier branches:    %d\n", res.Frontier)
	} else {
		fmt.Fprintln(w, "  state space fully explored")
	}
	if len(snap.Histograms) > 0 {
		names := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  distribution quantiles (approximate, bucket upper bounds):")
		for _, name := range names {
			h := snap.Histograms[name]
			fmt.Fprintf(w, "    %-32s p50=%d p95=%d p99=%d (n=%d)\n", name, h.P50, h.P95, h.P99, h.Count)
		}
	}
}

func load(corpusName, entries string, args []string, jobs int, prov *obs.Provider) (*ir.Module, []string, error) {
	if corpusName != "" {
		p := corpus.Get(corpusName)
		if p == nil {
			return nil, nil, fmt.Errorf("unknown corpus program %q", corpusName)
		}
		if len(p.MCEntries) == 0 {
			return nil, nil, fmt.Errorf("corpus program %q has no model-checking harness", corpusName)
		}
		m, err := p.Compile()
		return m, p.MCEntries, err
	}
	if len(args) != 1 || entries == "" {
		return nil, nil, fmt.Errorf("usage: atomig-mc -corpus name | -entries a,b file.c")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(args[0], ".air") {
		m, err := ir.ParseModule(string(src))
		return m, strings.Split(entries, ","), err
	}
	// The exploration worker count doubles as the frontend fan-out;
	// the compiled module is byte-identical for every -j.
	res, err := minic.CompileOpts(args[0], string(src), minic.Options{Workers: jobs, Obs: prov})
	if err != nil {
		return nil, nil, err
	}
	return res.Module, strings.Split(entries, ","), nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "atomig-mc:", err)
	return 2
}
