package main

import (
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/ir"
	"repro/internal/stress"
)

// stressSeeds is the schedules per scheduler mode in one sweep.
const stressSeeds = 128

// stressSample is the fraction of plain locations the race detector
// observes. Below 1 the sampler hashes every plain access; at 0.5 a
// sweep of one schedule per mode finds the planted race 92% of the time
// (docs/STRESS.md), so a sweep of 128 per mode always does.
const stressSample = 0.5

// stressLarge sweeps the ported planted-race module under every
// scheduler mode: plain vm execution, the race detector and the sampler,
// which the weakening workload leaves alone. The sweep is the operation,
// so its time is op_ms.
var stressLarge = &workload{
	name:   "stress-large",
	minOps: 3,
	setup:  setupStressLarge,
	detail: func(p *pass, d map[string]metric) {
		d["schedules_per_s"] = metric{p.count["stress.schedules"] / (median(p.ms["op"]) / 1e3), "1/s"}
	},
}

type stressLargeRun struct {
	m       *ir.Module
	entries []string
	seed    int64
	// gap is the planted race's location; racy holds every location the
	// ground truth allows a race on.
	gap  alias.Loc
	racy map[alias.Loc]bool
	am   *alias.Map
}

func setupStressLarge(p *pass, seed int64) (runner, error) {
	spec := appgen.LargeSpec("stress-large", portColdLines, seed)
	spec.PlantRace = true
	spec.HarnessThreads = 3
	src, gt := appgen.GenerateLarge(spec)
	res, _, err := p.compile("stress-large.c", src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if _, _, err := p.port(res.Module); err != nil {
		return nil, fmt.Errorf("port: %w", err)
	}
	if len(gt.Racy) != 1 {
		return nil, fmt.Errorf("ground truth has %d racy locations, want the planted one", len(gt.Racy))
	}
	r := &stressLargeRun{m: res.Module, entries: spec.HarnessEntries(), seed: seed,
		am: alias.BuildMapFromAccesses(res.Module, 1, nil), racy: map[alias.Loc]bool{}}
	r.gap = r.am.Canon(gt.Racy[0])
	for _, l := range gt.Racy {
		r.racy[r.am.Canon(l)] = true
	}
	return r, nil
}

// op is one sweep; it must find the planted race and no race the ground
// truth does not allow.
func (r *stressLargeRun) op(p *pass, i int) (time.Duration, error) {
	res, d, err := p.sweep(r.m, stress.Options{Entries: r.entries, Seeds: stressSeeds, BaseSeed: r.seed, Sample: stressSample})
	if err != nil {
		return d, fmt.Errorf("sweep: %w", err)
	}
	c := p.count
	c["stress.schedules"] = float64(res.Schedules)
	c["stress.steps"] = float64(res.Steps)
	c["stress.vm_resets"] = float64(res.VMResets)
	c["stress.vm_allocs"] = float64(res.VMAllocs)
	c["stress.forwarded"] = float64(res.Forwarded)
	c["stress.skipped"] = float64(res.Skipped)
	c["stress.step_limited"] = float64(res.StepLimited)

	found := false
	for _, rep := range res.Races() {
		l := r.am.Canon(rep.Loc)
		if !r.racy[l] {
			return d, fmt.Errorf("sweep %d: race on %s, outside the ground truth", i, rep.Loc)
		}
		found = found || l == r.gap
	}
	if !found {
		return d, fmt.Errorf("sweep %d: planted race on %s not found in %d schedules", i, r.gap, res.Schedules)
	}
	return d, nil
}

func (r *stressLargeRun) finish(p *pass) error { return nil }
func (r *stressLargeRun) close() error         { return nil }
