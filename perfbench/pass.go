package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"time"

	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/stress"
	"repro/internal/weaken"
)

// pass is one measurement pass: the layer clocks' samples, the work
// counts, and the checks made outside an operation (during set-up). A
// nil provider is the untraced pass.
type pass struct {
	prov *obs.Provider
	// ms holds millisecond samples by name ("op", "minic.compile", ...)
	// scaled to the reference speed, raw the same samples as measured, mb
	// megabyte samples, and count the latest work counts.
	ms    map[string][]float64
	raw   map[string][]float64
	mb    map[string][]float64
	count map[string]float64
	// outputs holds the hash of each checked output by name.
	outputs map[string]string
	// opAlloc sums the bytes the current operation's timed calls
	// allocated.
	opAlloc uint64

	// pending lists the ms samples taken since the last calibration, cal
	// is that calibration's kernel time and calAt when it ended; factors
	// holds the scale factor of every calibration interval.
	pending []sampleRef
	cal     float64
	calAt   time.Time
	factors []float64

	attempted int
	errs      []error
}

type sampleRef struct {
	name string
	i    int
}

func newPass(prov *obs.Provider) *pass {
	return &pass{prov: prov, ms: map[string][]float64{}, raw: map[string][]float64{},
		mb: map[string][]float64{}, count: map[string]float64{}, outputs: map[string]string{}}
}

// add records a raw ms sample, scaled at the next calibration.
func (p *pass) add(name string, v float64) {
	p.pending = append(p.pending, sampleRef{name, len(p.ms[name])})
	p.ms[name] = append(p.ms[name], v)
	p.raw[name] = append(p.raw[name], v)
}

// startClock takes the calibration the first samples are scaled from.
func (p *pass) startClock() {
	p.cal, p.calAt = calibrate(), time.Now()
}

// tick calibrates once calEvery has passed since the last calibration,
// or at once with force, and scales the samples taken in between by the
// mean of the two calibrations around them; the samples of an interval
// longer than calLong are scaled by the median of every factor so far.
func (p *pass) tick(force bool) {
	since := time.Since(p.calAt)
	if !force && since < calEvery {
		return
	}
	c := calibrate()
	f := calRefMS / ((p.cal + c) / 2)
	p.factors = append(p.factors, f)
	scale := f
	if since > calLong {
		scale = median(p.factors)
	}
	for _, s := range p.pending {
		p.ms[s.name][s.i] *= scale
	}
	p.pending = p.pending[:0]
	p.cal, p.calAt = c, time.Now()
}

// check records one checked operation made outside the measured loop.
func (p *pass) check(err error) {
	p.attempted++
	if err != nil {
		p.errs = append(p.errs, err)
	}
}

// hash is the short output hash recorded in the goldens.
func hash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// allocSince charges the bytes allocated since before to the current
// operation and, when name is set, records them as a sample of name.
func (p *pass) allocSince(name string, before uint64) {
	n := allocated() - before
	p.opAlloc += n
	if name != "" {
		p.mb[name] = append(p.mb[name], float64(n)/(1<<20))
	}
}

// The layer clocks: each times one public entry point with the
// benchmark's own clock, at Workers: 1, with the pass's provider.

func (p *pass) compile(name, src string) (*minic.Result, time.Duration, error) {
	before := allocated()
	start := time.Now()
	res, err := minic.CompileOpts(name, src, minic.Options{Workers: 1, Obs: p.prov})
	d := time.Since(start)
	p.allocSince("minic", before)
	p.add("minic.compile", ms(d))
	return res, d, err
}

func (p *pass) port(m *ir.Module) (*atomig.Report, time.Duration, error) {
	opts := atomig.DefaultOptions()
	opts.Workers = 1
	opts.Obs = p.prov
	before := allocated()
	start := time.Now()
	rep, err := atomig.Port(m, opts)
	d := time.Since(start)
	p.allocSince("atomig", before)
	p.add("atomig.port", ms(d))
	if err == nil {
		p.portReport(rep)
	}
	return rep, d, err
}

// portReport keeps the work counts of the latest port.
func (p *pass) portReport(rep *atomig.Report) {
	p.count["atomig.spinloops"] = float64(rep.Spinloops)
	p.count["atomig.sticky_marked"] = float64(rep.StickyMarked)
	p.count["atomig.fences"] = float64(rep.ExplicitAdded)
	p.count["atomig.alias_merges"] = float64(rep.AliasMerges)
}

func (p *pass) optimize(m *ir.Module, opts weaken.Options) (*weaken.Result, time.Duration, error) {
	opts.Workers = 1
	opts.Obs = p.prov
	before := allocated()
	start := time.Now()
	res, err := weaken.Optimize(m, opts)
	d := time.Since(start)
	p.allocSince("", before)
	return res, d, err
}

func (p *pass) sweep(m *ir.Module, opts stress.Options) (*stress.Result, time.Duration, error) {
	opts.Workers = 1
	opts.Obs = p.prov
	before := allocated()
	start := time.Now()
	res, err := stress.Sweep(m, opts)
	d := time.Since(start)
	p.allocSince("", before)
	return res, d, err
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
