package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/ir"
)

// portColdLines is the size of the generated module: the paper's
// headline path at the scale of a large application.
const portColdLines = 100_000

// portCold compiles and ports a fresh copy of the generated module per
// operation: MiniC in, ported module out. It runs only minic and atomig;
// the detection cache, weaken, mc and stress are bypassed.
var portCold = &workload{
	name:   "port-cold",
	minOps: 3,
	setup: func(p *pass, seed int64) (runner, error) {
		src, gt := appgen.GenerateLarge(appgen.LargeSpec("port-cold", portColdLines, seed))
		return &portColdRun{src: src, gt: gt, lines: strings.Count(src, "\n"), want: portColdHashes[seed]}, nil
	},
	detail: func(p *pass, d map[string]metric) {
		d["port_lines_per_s"] = metric{p.count["port.lines"] / (median(p.ms["op"]) / 1e3), "1/s"}
	},
}

type portColdRun struct {
	src   string
	gt    appgen.GroundTruth
	lines int
	// want is the recorded output hash for this seed ("" when none is
	// recorded); got is the first operation's.
	want, got string
}

func (r *portColdRun) op(p *pass, i int) (time.Duration, error) {
	p.count["port.lines"] = float64(r.lines)
	res, dc, err := p.compile("port-cold.c", r.src)
	if err != nil {
		return dc, fmt.Errorf("compile: %w", err)
	}
	_, dp, err := p.port(res.Module)
	if err != nil {
		return dc + dp, fmt.Errorf("port: %w", err)
	}
	return dc + dp, r.check(p, res.Module, i)
}

// check compares the ported module with the generator's ground truth
// and its hash with the first operation's and the recorded one.
func (r *portColdRun) check(p *pass, m *ir.Module, i int) error {
	h := hash(m.String())
	p.outputs["port-cold"] = h
	if r.got == "" {
		r.got = h
	}
	if h != r.got {
		return fmt.Errorf("operation %d: output hash %s differs from the first operation's %s", i, h, r.got)
	}
	if r.want != "" && h != r.want {
		return fmt.Errorf("operation %d: output hash %s differs from the recorded %s", i, h, r.want)
	}
	return checkGroundTruth(m, r.gt)
}

func (r *portColdRun) finish(p *pass) error { return nil }
func (r *portColdRun) close() error         { return nil }

// checkGroundTruth checks a ported generated module against the
// generator's promotion contract: the locations with seq_cst accesses
// are exactly GroundTruth.Promoted, every inserted fence sits next to an
// access of a GroundTruth.Fenced location, and every such location has
// one.
func checkGroundTruth(m *ir.Module, gt appgen.GroundTruth) error {
	am := alias.BuildMapFromAccesses(m, 1, nil)
	want := map[alias.Loc]bool{}
	for _, l := range gt.Promoted {
		want[am.Canon(l)] = true
	}
	got := map[alias.Loc]bool{}
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.IsMemAccess() && in.Ord == ir.SeqCst {
			got[am.Canon(am.Loc(in))] = true
		}
	})
	for l := range want {
		if !got[l] {
			return fmt.Errorf("location %s should be promoted but has no seq_cst access", l)
		}
	}
	for l := range got {
		if !want[l] {
			return fmt.Errorf("location %s promoted but not in the ground truth", l)
		}
	}
	fenced := map[alias.Loc]bool{}
	for _, l := range gt.Fenced {
		fenced[am.Canon(l)] = true
	}
	seen := map[alias.Loc]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpFence || !in.HasMark(ir.MarkInsertedFence) {
					continue
				}
				ok := false
				for _, adj := range []int{i - 1, i + 1} {
					if adj < 0 || adj >= len(b.Instrs) || !b.Instrs[adj].IsMemAccess() {
						continue
					}
					if l := am.Canon(am.Loc(b.Instrs[adj])); fenced[l] {
						seen[l] = true
						ok = true
					}
				}
				if !ok {
					return fmt.Errorf("inserted fence in %s is not next to a ground-truth fenced access", f.Name)
				}
			}
		}
	}
	for l := range fenced {
		if !seen[l] {
			return fmt.Errorf("location %s should be fenced but no inserted fence is next to it", l)
		}
	}
	return nil
}
