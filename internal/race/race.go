// Package race is a FastTrack-style dynamic happens-before data-race
// detector for VM executions (in the spirit of C11Tester's race oracle
// over a weak-memory execution engine). It observes every shared-memory
// event of an execution through the VM's event-hook seam and reports
// pairs of conflicting accesses — same location, at least one a write,
// at least one non-atomic — that are unordered by happens-before.
//
// Happens-before is mirrored from the memmodel view machinery, not
// re-invented: acquire loads synchronize with the release store of the
// exact message they read (the hook carries the view-machine message
// timestamp), SC fences synchronize through a global fence clock the
// way Machine.Fence joins the global SC view, and spawn/join/barrier
// edges follow the thread-view forks and joins of the VM. Whether an
// access counts as atomic is decided by its *static* ordering (C11
// semantics: a plain access is non-atomic everywhere), while the
// synchronization edges use the model's *effective* ordering
// (memmodel.EffectiveOrd) — so a TSO execution derives happens-before
// from every plain store/load pair, and races that TSO hardware hides
// are still reported as the migration gaps they are.
//
// In the AtoMig workflow the detector is the second correctness oracle
// after assertion checking: a correctly ported program's remaining
// plain accesses are all happens-before-ordered through the promoted
// synchronization accesses, so any reported race is exactly a
// migration gap (a sticky buddy the alias exploration missed, a spin
// control the detector skipped).
package race

import (
	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/vm"
)

// VC is a vector clock: one logical clock per thread index.
type VC []uint32

// get returns the clock component for thread i (0 when out of range).
func (v VC) get(i int) uint32 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// join raises v to include o component-wise, growing as needed.
func (v *VC) join(o VC) {
	for i, c := range o {
		if i < len(*v) {
			if (*v)[i] < c {
				(*v)[i] = c
			}
		} else if c != 0 {
			for len(*v) < i {
				*v = append(*v, 0)
			}
			*v = append(*v, c)
		}
	}
}

// clone returns a copy of the clock.
func (v VC) clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Options configures a detector.
type Options struct {
	// MaxReports caps the number of distinct race reports retained
	// (further occurrences of known site pairs still bump their Count).
	// 0 selects 32.
	MaxReports int
	// Obs, when non-nil, publishes the detector's event stream to the
	// metrics registry (race.accesses_observed, race.reports_recorded).
	// Nil keeps the hot path free of counter updates.
	Obs *obs.Provider
}

// accessRec is the detector's record of one access: the FastTrack epoch
// (thread, clock component) plus the metadata a report needs.
type accessRec struct {
	thread int
	clock  uint32
	write  bool
	atomic bool
	ord    ir.MemOrder
	site   *ir.Instr
}

// locState is the per-location detector state: the epoch of the last
// write, the per-thread read epochs since that write, and the release
// clock attached to each message of the location's history.
type locState struct {
	addr memmodel.Addr
	// live marks a location this execution touched (listed in
	// Detector.touched).
	live     bool
	write    accessRec
	hasWrite bool
	reads    []accessRec
	// rel holds, by view-machine message timestamp, the vector clock the
	// writer released with the message — the detector's mirror of
	// Msg.Rel. Timestamps are dense per location; an empty clock means
	// the message released nothing.
	rel []VC
	// sync accumulates every release to the location; it is the
	// synchronization clock used when no message timestamp is available
	// (the flat SC backend), mirroring how an SC machine orders all
	// same-location accesses.
	sync VC
}

// Detector is a happens-before data-race detector. It implements
// vm.Hook; install it via vm.Options.Hook. A detector observes one
// execution at a time (call BeginExec between executions) and is not
// safe for concurrent use.
type Detector struct {
	model  memmodel.Model
	opts   Options
	clocks []VC
	// locs is the per-location state, indexed by the VM's cell numbers
	// (vm.AccessEvent.Cell) and reused across executions; touched lists
	// the cells this execution touched, and order the first nOrdered of
	// them sorted by address (see Fingerprint).
	locs     memmodel.Cells[locState]
	touched  []memmodel.Cell
	order    []memmodel.Cell
	nOrdered int
	// scClock mirrors the machine's global SC view for fence
	// synchronization.
	scClock VC
	reports []*Report
	seen    map[string]*Report
	// sites memoizes each access site's rendering (SiteString).
	sites map[*ir.Instr]string
	// execStart is len(reports) at the last BeginExec, so callers can
	// tell whether the current execution contributed new findings.
	execStart int
	// Registry counters (nil — a free no-op — without Options.Obs).
	cAccesses *obs.Counter
	cReports  *obs.Counter
}

// resolveMaxReports applies the default report cap (32) when the
// caller left MaxReports zero.
func resolveMaxReports(n int) int {
	if n == 0 {
		return 32
	}
	return n
}

// New returns a detector for executions under the given model (the
// zero Model means ModelSC).
func New(model memmodel.Model, opts Options) *Detector {
	opts.MaxReports = resolveMaxReports(opts.MaxReports)
	d := &Detector{
		model: model.Or(memmodel.ModelSC), opts: opts, seen: make(map[string]*Report),
		sites:     make(map[*ir.Instr]string),
		cAccesses: opts.Obs.Counter("race.accesses_observed"),
		cReports:  opts.Obs.Counter("race.reports_recorded"),
	}
	d.BeginExec()
	return d
}

// BeginExec resets the per-execution state (clocks, location epochs,
// fence clock) while keeping the accumulated race reports, so one
// detector can observe many executions (the model checker's exploration,
// a scheduler-mode sweep) and deduplicate findings across them.
func (d *Detector) BeginExec() {
	d.clocks = d.clocks[:0]
	for _, c := range d.touched {
		l := d.locs.At(c)
		for i := range l.rel {
			l.rel[i] = l.rel[i][:0]
		}
		*l = locState{reads: l.reads[:0], rel: l.rel[:0], sync: l.sync[:0]}
	}
	d.touched = d.touched[:0]
	d.order = d.order[:0]
	d.nOrdered = 0
	d.scClock = nil
	d.execStart = len(d.reports)
}

// Reports returns the accumulated distinct race reports, in detection
// order.
func (d *Detector) Reports() []*Report { return d.reports }

// Races returns the number of distinct races found so far.
func (d *Detector) Races() int { return len(d.reports) }

// ExecFoundNew reports whether the execution since the last BeginExec
// contributed at least one previously unseen race.
func (d *Detector) ExecFoundNew() bool { return len(d.reports) > d.execStart }

// ensure grows the clock table to cover thread t, initializing a fresh
// thread's own component to 1 (epoch clock 0 means "no access").
func (d *Detector) ensure(t int) {
	for len(d.clocks) <= t {
		id := len(d.clocks)
		c := make(VC, id+1)
		c[id] = 1
		d.clocks = append(d.clocks, c)
	}
}

// loc returns the state of the accessed location, listing it on first
// touch.
func (d *Detector) loc(ev vm.AccessEvent) *locState {
	l := d.locs.At(ev.Cell)
	if !l.live {
		l.live = true
		l.addr = ev.Addr
		d.touched = append(d.touched, ev.Cell)
	}
	return l
}

// ordered reports whether the recorded access happens-before thread t's
// current point.
func (d *Detector) ordered(rec accessRec, t int) bool {
	if rec.thread == t {
		return true // program order
	}
	return d.clocks[t].get(rec.thread) >= rec.clock
}

// release publishes thread t's clock: attaches it to the written
// message (when the view machine reported a timestamp), accumulates it
// in the location's sync clock, and advances t's own component so later
// accesses are not covered by this publication.
func (d *Detector) release(t int, l *locState, writeTS int) {
	rc := d.clocks[t]
	if writeTS >= 0 {
		for len(l.rel) <= writeTS {
			if len(l.rel) < cap(l.rel) {
				l.rel = l.rel[:len(l.rel)+1] // the spare clock was emptied by BeginExec
			} else {
				l.rel = append(l.rel, nil)
			}
		}
		l.rel[writeTS] = append(l.rel[writeTS][:0], rc...)
	}
	l.sync.join(rc)
	d.clocks[t][t]++
}

// acquire joins the synchronization clock of the message read: the
// exact released clock when a timestamp is available, the location's
// accumulated sync clock otherwise (flat SC backend).
func (d *Detector) acquire(t int, l *locState, readTS int) {
	if readTS >= 0 {
		if readTS < len(l.rel) && len(l.rel[readTS]) > 0 {
			d.clocks[t].join(l.rel[readTS])
		}
		return
	}
	d.clocks[t].join(l.sync)
}

// OnAccess implements vm.Hook.
func (d *Detector) OnAccess(ev vm.AccessEvent) {
	d.cAccesses.Inc()
	d.ensure(ev.Thread)
	switch ev.Kind {
	case vm.AccessLoad:
		eo := memmodel.EffectiveOrd(d.model, int(ev.Ord), false)
		d.read(ev, eo, ev.Ord.Atomic())
	case vm.AccessStore:
		eo := memmodel.EffectiveOrd(d.model, int(ev.Ord), true)
		d.write(ev, eo, ev.Ord.Atomic())
	case vm.AccessRMW:
		eo := memmodel.RMWOrd(d.model, int(ev.Ord))
		d.read(ev, eo.LoadPart(), true)
		d.write(ev, eo.StorePart(), true)
	case vm.AccessCasFail:
		eo := memmodel.RMWOrd(d.model, int(ev.Ord))
		d.read(ev, eo.LoadPart(), true)
	}
}

// read processes the read half of an access: acquire synchronization,
// then the read-vs-write race check, then the read epoch update.
func (d *Detector) read(ev vm.AccessEvent, eo memmodel.AccessOrd, atomic bool) {
	t := ev.Thread
	l := d.loc(ev)
	if eo.Acquires() {
		d.acquire(t, l, ev.ReadTS)
	}
	rec := accessRec{
		thread: t, clock: d.clocks[t][t],
		write: false, atomic: atomic, ord: ev.Ord, site: ev.Instr,
	}
	if l.hasWrite && !(atomic && l.write.atomic) && !d.ordered(l.write, t) {
		d.report(ev.Addr, l.write, rec)
	}
	// Keep at most one read epoch per thread since the last write.
	for i := range l.reads {
		if l.reads[i].thread == t {
			l.reads[i] = rec
			return
		}
	}
	l.reads = append(l.reads, rec)
}

// write processes the write half of an access: write-vs-write and
// write-vs-read race checks, epoch update, then release
// synchronization.
func (d *Detector) write(ev vm.AccessEvent, eo memmodel.AccessOrd, atomic bool) {
	t := ev.Thread
	l := d.loc(ev)
	rec := accessRec{
		thread: t, clock: d.clocks[t][t],
		write: true, atomic: atomic, ord: ev.Ord, site: ev.Instr,
	}
	if l.hasWrite && !(atomic && l.write.atomic) && !d.ordered(l.write, t) {
		d.report(ev.Addr, l.write, rec)
	}
	for _, r := range l.reads {
		if r.thread != t && !(atomic && r.atomic) && !d.ordered(r, t) {
			d.report(ev.Addr, r, rec)
		}
	}
	l.write = rec
	l.hasWrite = true
	l.reads = l.reads[:0]
	if eo.Releases() {
		d.release(t, l, ev.WriteTS)
	}
}

// OnFence implements vm.Hook, mirroring Machine.Fence: acquire fences
// join the global fence clock, release fences publish to it, SC (and
// acq_rel) fences do both.
func (d *Detector) OnFence(thread int, ord ir.MemOrder) {
	d.ensure(thread)
	switch ord {
	case ir.Acquire:
		d.clocks[thread].join(d.scClock)
	case ir.Release:
		d.scClock.join(d.clocks[thread])
		d.clocks[thread][thread]++
	default: // seq_cst, acq_rel
		d.clocks[thread].join(d.scClock)
		d.scClock.join(d.clocks[thread])
		d.clocks[thread][thread]++
	}
}

// OnSpawn implements vm.Hook: the child starts with the parent's clock
// (a spawned thread synchronizes with its creator), and both advance so
// their subsequent accesses are mutually concurrent.
func (d *Detector) OnSpawn(parent, child int) {
	d.ensure(parent)
	d.ensure(child)
	c := d.clocks[parent].clone()
	for len(c) <= child {
		c = append(c, 0)
	}
	c[child] = d.clocks[child].get(child) + 1
	d.clocks[child] = c
	d.clocks[parent][parent]++
}

// OnJoin implements vm.Hook: the joining thread absorbs the finished
// thread's clock.
func (d *Detector) OnJoin(t, joined int) {
	d.ensure(t)
	d.ensure(joined)
	d.clocks[t].join(d.clocks[joined])
}

// OnBarrier implements vm.Hook: all participants synchronize with one
// another, then each advances its own component.
func (d *Detector) OnBarrier(participants []int) {
	var all VC
	for _, p := range participants {
		d.ensure(p)
		all.join(d.clocks[p])
	}
	for _, p := range participants {
		d.clocks[p] = all.clone()
		d.clocks[p][p]++
	}
}

// report records a race, deduplicating by the (unordered) pair of
// access sites so one racy loop does not flood the findings.
func (d *Detector) report(a memmodel.Addr, prior, cur accessRec) {
	k1, k2 := d.siteString(prior.site), d.siteString(cur.site)
	if k2 < k1 {
		k1, k2 = k2, k1
	}
	key := k1 + "|" + k2
	if r := d.seen[key]; r != nil {
		r.Count++
		return
	}
	if len(d.reports) >= d.opts.MaxReports {
		return
	}
	r := &Report{
		Addr:    a,
		Loc:     reportLoc(prior.site, cur.site),
		Prior:   newAccess(prior, d.clockOf(prior.thread)),
		Current: newAccess(cur, d.clockOf(cur.thread)),
		Count:   1,
	}
	d.seen[key] = r
	d.reports = append(d.reports, r)
	d.cReports.Inc()
}

// siteString renders an access site once per detector (SiteString).
func (d *Detector) siteString(in *ir.Instr) string {
	s, ok := d.sites[in]
	if !ok {
		s = SiteString(in)
		d.sites[in] = s
	}
	return s
}

func (d *Detector) clockOf(t int) VC {
	if t < len(d.clocks) {
		return d.clocks[t].clone()
	}
	return nil
}

// reportLoc derives the symbolic location (global name or struct field)
// from whichever site has a resolvable address descriptor.
func reportLoc(sites ...*ir.Instr) alias.Loc {
	for _, s := range sites {
		if s == nil {
			continue
		}
		if addr := s.Addr(); addr != nil {
			if loc := alias.LocOf(addr); loc.Shared() {
				return loc
			}
		}
	}
	return alias.Loc{Kind: alias.LocUnknown}
}
