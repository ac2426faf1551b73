package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/weaken"
)

// weakenProgram is one program of the weakening set with the outcome the
// exhaustive oracle reaches on it. DetectRaces follows the weakening
// sweep's per-program setting (off where the fingerprinted state space
// is intractable). ck_spinlock_cas and the generated programs are left
// out: their checks hit time budgets, so their cost is unsteady.
type weakenProgram struct {
	name        string
	detectRaces bool
	verdict     string
	costBefore  int64
	costAfter   int64
	// hash is the weakened module's output hash.
	hash string
}

var weakenPrograms = []weakenProgram{
	{"mp", true, "verified", 12, 10, "59c593d8f44b1340"},
	{"seqlock", false, "verified", 61, 30, "63efd69639608cbe"},
	{"seqlock-gap", true, "verified", 22, 15, "01d1a500dcc72bbf"},
	{"ck_spinlock_ticket", false, "verified", 61, 43, "157f08610fef6ff2"},
	{"ck_sequence", false, "verified", 67, 36, "5b0b973dcdb0a66d"},
	{"ck_spinlock_mcs", false, "verified", 163, 101, "44128f2c9edf2b9d"},
	{"cna-lock", true, "verified", 293, 199, "c11465a5c1b40e2e"},
}

// weakenCorpus ports and weakens each program with the default
// exhaustive oracle. Nearly all time is weaken plus mc; the port is
// negligible.
var weakenCorpus = &workload{
	name:   "weaken-corpus",
	minOps: 1,
	setup:  setupWeakenCorpus,
	detail: func(p *pass, d map[string]metric) {
		c := p.count
		d["optimize_s"] = metric{median(p.ms["op"]) / 1e3, "s"}
		d["cost_reduction_pct"] = metric{100 * (c["weaken.cost_before"] - c["weaken.cost_after"]) / c["weaken.cost_before"], "%"}
		d["mc.check_ms"] = metric{median(p.ms["mc.check"]), "ms"}
		d["weaken.self_ms"] = metric{median(p.ms["weaken.optimize"]) - median(p.ms["mc.check"]), "ms"}
		for _, prog := range weakenPrograms {
			d["weaken.ms."+prog.name] = metric{median(p.ms["weaken."+prog.name]), "ms"}
		}
	},
}

type weakenCorpusRun struct {
	mods    []*ir.Module
	entries [][]string
}

func setupWeakenCorpus(p *pass, seed int64) (runner, error) {
	r := &weakenCorpusRun{}
	for _, prog := range weakenPrograms {
		src := corpus.Get(prog.name)
		if src == nil {
			return nil, fmt.Errorf("program %q is not in the corpus", prog.name)
		}
		res, _, err := p.compile(prog.name, src.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", prog.name, err)
		}
		r.mods = append(r.mods, res.Module)
		r.entries = append(r.entries, src.MCEntries)
	}
	return r, nil
}

// op ports and weakens a fresh copy of every program, checking each
// against its recorded outcome.
func (r *weakenCorpusRun) op(p *pass, i int) (time.Duration, error) {
	var total time.Duration
	var firstErr error
	var t weakenTimes
	c := map[string]float64{}
	for j, prog := range weakenPrograms {
		d, err := r.one(p, j, prog, c, &t)
		total += d
		p.add("weaken."+prog.name, ms(d))
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", prog.name, err)
		}
	}
	p.add("weaken.optimize", t.optimize)
	p.add("mc.check", t.check)
	for k, v := range c {
		p.count[k] = v
	}
	return total, firstErr
}

// weakenTimes sums one operation's optimize and checker times in ms.
type weakenTimes struct{ optimize, check float64 }

// one ports and weakens program j, adding its work counts to c and its
// times to t.
func (r *weakenCorpusRun) one(p *pass, j int, prog weakenProgram, c map[string]float64, t *weakenTimes) (time.Duration, error) {
	m, err := ir.CloneModule(r.mods[j])
	if err != nil {
		return 0, fmt.Errorf("clone: %w", err)
	}
	_, dp, err := p.port(m)
	if err != nil {
		return dp, fmt.Errorf("port: %w", err)
	}
	opts := weaken.DefaultOptions(r.entries[j])
	opts.DetectRaces = prog.detectRaces
	res, dw, err := p.optimize(m, opts)
	if err != nil {
		return dp + dw, fmt.Errorf("weaken: %w", err)
	}
	t.optimize += ms(dw)
	t.check += ms(res.MCTime)
	c["weaken.tried"] += float64(res.Tried)
	c["weaken.accepted"] += float64(res.Accepted)
	c["weaken.rounds"] += float64(res.Rounds)
	c["weaken.cost_before"] += float64(res.CostBefore)
	c["weaken.cost_after"] += float64(res.CostAfter)
	c["mc.checks"] += float64(res.MCChecks)
	c["mc.executions"] += float64(res.MCExecutions)

	if res.Verdict != prog.verdict || res.CostBefore != prog.costBefore || res.CostAfter != prog.costAfter {
		return dp + dw, fmt.Errorf("verdict %s, cost %d -> %d; want %s, %d -> %d",
			res.Verdict, res.CostBefore, res.CostAfter, prog.verdict, prog.costBefore, prog.costAfter)
	}
	h := hash(m.String())
	p.outputs[prog.name] = h
	if prog.hash != "" && h != prog.hash {
		return dp + dw, fmt.Errorf("weakened module hash %s, want %s", h, prog.hash)
	}
	return dp + dw, nil
}

func (r *weakenCorpusRun) finish(p *pass) error { return nil }
func (r *weakenCorpusRun) close() error         { return nil }
