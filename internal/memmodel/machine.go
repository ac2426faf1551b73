package memmodel

// ReadOracle resolves the nondeterministic choice of which eligible
// message a weak load observes. The VM plugs in a seeded random oracle;
// the model checker plugs in its DFS exploration.
type ReadOracle interface {
	// PickRead returns which of the n eligible messages the load reads,
	// as an index in [0, n) from the oldest eligible message to the
	// newest. n is always at least 1 (the newest message).
	PickRead(addr Addr, n int) int
}

// cell is one location's memory-model state.
type cell struct {
	// hist is the location's message history, oldest first; empty until
	// the execution first touches the location.
	hist []Msg
	addr Addr
	// acc is the running hash of hist[:hashed] (see StateAcc): history
	// hashing runs when a state hash is asked for, not per store.
	acc    uint64
	hashed int
}

// Machine is a view-based shared memory shared by all threads of an
// execution. Locations are cells numbered by the VM (see Cell); each
// access names both the cell, which indexes the machine's tables, and
// its address, which keys views and state hashes.
type Machine struct {
	Model Model
	cells Cells[cell]
	// touched lists the cells whose history this execution materialized,
	// in first-touch order; Reset clears exactly these.
	touched []Cell
	// init holds the initial values of cells 0..len(init)-1 (the globals)
	// and overInit those of this execution's overflow cells, by ^cell;
	// every other cell starts at 0.
	init     []int64
	overInit []int64
	// scView is the global view joined by SC accesses and fences,
	// modelling the total order implicit barriers establish.
	scView View
	oracle ReadOracle
	// arena backs the released-view snapshots of this execution's
	// messages; Reset truncates it.
	arena []ViewEntry
	// Incremental state-hash accumulators (see StateAcc): acc XORs the
	// address-tagged history hashes of the touched cells; pending lists
	// the cells with messages not yet folded into their hash; scHash
	// caches the SC-view hash, recomputed when scDirty.
	acc     uint64
	pending []Cell
	scHash  uint64
	scDirty bool
}

// NewMachine returns an empty machine under the given model using the
// supplied oracle for weak read choices.
func NewMachine(model Model, oracle ReadOracle) *Machine {
	return &Machine{Model: model, oracle: oracle}
}

// SetInits records the initial values of cells 0..len(init)-1; the
// machine keeps the slice, which must not change afterwards. Every other
// cell starts at 0.
func (mc *Machine) SetInits(init []int64) { mc.init = init }

// SetInit records the initial value of overflow cell c (c < 0) for the
// current execution; Reset forgets it, as the VM renumbers overflow
// cells per execution.
func (mc *Machine) SetInit(c Cell, v int64) {
	i := int(^c)
	if i >= len(mc.overInit) {
		mc.overInit = grow(mc.overInit, i+1)
	}
	mc.overInit[i] = v
}

// Reset restores the machine to its empty initial state, clearing only
// the cells the execution touched and keeping every buffer, so one
// machine can serve many executions (the model checker's VM reuse).
// Initial values (SetInits) persist.
func (mc *Machine) Reset() {
	for _, c := range mc.touched {
		cl := mc.cells.At(c)
		cl.hist = cl.hist[:0]
		cl.acc, cl.hashed = 0, 0
	}
	mc.touched = mc.touched[:0]
	clear(mc.overInit)
	mc.pending = mc.pending[:0]
	mc.arena = mc.arena[:0]
	mc.scView.Reset()
	mc.acc = 0
	mc.scHash = 0
	mc.scDirty = false
}

// initOf returns the initial value of cell c.
func (mc *Machine) initOf(c Cell) int64 {
	if c >= 0 {
		if int(c) < len(mc.init) {
			return mc.init[c]
		}
		return 0
	}
	if i := int(^c); i < len(mc.overInit) {
		return mc.overInit[i]
	}
	return 0
}

// Final returns the newest value at a cell — the value every thread
// would agree on after full synchronization. Used by the differential
// harness to compare final states across models and schedulers.
func (mc *Machine) Final(c Cell) int64 {
	if cl := mc.cells.Has(c); cl != nil && len(cl.hist) > 0 {
		return cl.hist[len(cl.hist)-1].Val
	}
	return mc.initOf(c)
}

// loc returns the state of cell c at address a, materializing the
// initial message on first touch.
func (mc *Machine) loc(c Cell, a Addr) *cell {
	cl := mc.cells.At(c)
	if len(cl.hist) == 0 {
		cl.hist = append(cl.hist, Msg{Val: mc.initOf(c)})
		cl.addr = a
		mc.touched = append(mc.touched, c)
		mc.pending = append(mc.pending, c)
	}
	return cl
}

// Thread is the per-thread memory state: its view.
type Thread struct {
	View View
}

// NewThread returns a fresh thread view.
func NewThread() *Thread { return &Thread{} }

// Reset clears the thread's view, keeping its buffers (VM reuse across
// model-checker executions).
func (t *Thread) Reset() { t.View.Reset() }

// JoinThread absorbs another thread's view into t (a joining thread
// synchronizes with the joined thread's final state; a spawned thread
// joins its creator's view into an empty one).
func (t *Thread) JoinThread(o *Thread) { t.View.Join(o.View.ents) }

// eligible returns the messages a load with the given effective
// ordering may read at cell cl (address a): n messages starting at
// timestamp start, always ending at the newest. On an SC machine every
// load sees only the newest message. Under the weak models, loads —
// including SC-atomic loads — may read any message at or above the
// thread's view floor: C11/RC11 allows an SC load to read a stale write
// as long as the SC total order stays consistent, and that staleness is
// precisely the behavior that breaks sequence locks whose counters were
// made SC without fences (the paper's Spin-level ablation of Table 2).
// SC ordering between fenced accesses is restored by Fence's
// global-view synchronization; atomic read-modify-writes always read
// the newest message (hardware exclusives fail on stale lines).
func (mc *Machine) eligible(t *Thread, cl *cell, a Addr, ord AccessOrd) (start, n int) {
	h := cl.hist
	if mc.Model == ModelSC {
		return len(h) - 1, 1
	}
	floor := t.View.Floor(a)
	return floor, len(h) - floor
}

// LoadT performs a load with the given effective ordering, consulting
// the oracle for the read choice, and returns the value and the
// timestamp of the message read — the identity instrumentation (race
// detection) needs to follow reads-from edges precisely.
func (mc *Machine) LoadT(t *Thread, c Cell, a Addr, ord AccessOrd) (int64, int) {
	cl := mc.loc(c, a) // the oracle sees no cell, so cl outlives PickRead
	start, n := mc.eligible(t, cl, a, ord)
	ts := start + mc.oracle.PickRead(a, n)
	return mc.finishLoad(t, cl, ord, ts), ts
}

// finishLoad applies the view effects of reading message ts of cl.
func (mc *Machine) finishLoad(t *Thread, cl *cell, ord AccessOrd, ts int) int64 {
	m := cl.hist[ts]
	t.View.Raise(cl.addr, ts) // per-location coherence for this thread
	if ord.acquires() && m.Rel != nil {
		t.View.Join(m.Rel)
	}
	return m.Val
}

// StoreT appends a new message at cell c (address a) and returns its
// timestamp.
func (mc *Machine) StoreT(t *Thread, c Cell, a Addr, v int64, ord AccessOrd) int {
	return mc.store(t, mc.loc(c, a), c, v, ord)
}

func (mc *Machine) store(t *Thread, cl *cell, c Cell, v int64, ord AccessOrd) int {
	ts := len(cl.hist)
	t.View.Raise(cl.addr, ts)
	m := Msg{Val: v, TS: ts}
	if ord.releases() {
		lo := len(mc.arena)
		mc.arena = append(mc.arena, t.View.ents...)
		m.Rel = mc.arena[lo:len(mc.arena):len(mc.arena)]
	}
	if cl.hashed == len(cl.hist) {
		mc.pending = append(mc.pending, c)
	}
	cl.hist = append(cl.hist, m)
	return ts
}

// RMWResult reports the outcome of a read-modify-write. ReadTS is the
// timestamp of the message read (always the newest); WriteTS is the
// timestamp of the appended message, or -1 when a compare-exchange
// failed and wrote nothing.
type RMWResult struct {
	Old     int64
	Swapped bool
	ReadTS  int
	WriteTS int
}

// CmpXchg atomically compares the newest message at a with expected and,
// on match, appends nv. Atomic read-modify-writes always read the newest
// message (exclusives fail otherwise on real hardware, retrying until
// current).
func (mc *Machine) CmpXchg(t *Thread, c Cell, a Addr, expected, nv int64, ord AccessOrd) RMWResult {
	cl := mc.loc(c, a)
	newest := len(cl.hist) - 1
	old := mc.finishLoad(t, cl, ord.loadPart(), newest)
	if old != expected {
		return RMWResult{Old: old, ReadTS: newest, WriteTS: -1}
	}
	wts := mc.store(t, cl, c, nv, ord.storePart())
	return RMWResult{Old: old, Swapped: true, ReadTS: newest, WriteTS: wts}
}

// RMWT atomically applies f to the newest value at a and reports the
// message timestamps involved.
func (mc *Machine) RMWT(t *Thread, c Cell, a Addr, f func(int64) int64, ord AccessOrd) RMWResult {
	cl := mc.loc(c, a)
	newest := len(cl.hist) - 1
	old := mc.finishLoad(t, cl, ord.loadPart(), newest)
	wts := mc.store(t, cl, c, f(old), ord.storePart())
	return RMWResult{Old: old, Swapped: true, ReadTS: newest, WriteTS: wts}
}

// LoadPart returns the load half of an RMW ordering (exported for
// happens-before mirroring).
func (o AccessOrd) LoadPart() AccessOrd { return o.loadPart() }

// StorePart returns the store half of an RMW ordering.
func (o AccessOrd) StorePart() AccessOrd { return o.storePart() }

// loadPart returns the load half of an RMW ordering.
func (o AccessOrd) loadPart() AccessOrd {
	switch o {
	case OrdAcqRel, OrdAcquire:
		return OrdAcquire
	case OrdSC:
		return OrdSC
	}
	return OrdRelaxed
}

// storePart returns the store half of an RMW ordering.
func (o AccessOrd) storePart() AccessOrd {
	switch o {
	case OrdAcqRel, OrdRelease:
		return OrdRelease
	case OrdSC:
		return OrdSC
	}
	return OrdRelaxed
}

// Fence applies a fence: SC fences synchronize bidirectionally with the
// global SC view (modelling DMB ISH cumulativity); acquire/release
// fences join or publish accordingly.
func (mc *Machine) Fence(t *Thread, staticOrd int) {
	// Under TSO and SC the machine is already strong enough that fences
	// only need the SC-view synchronization; under WMM the distinction
	// matters for acquire/release fences.
	switch staticOrd {
	case 2: // acquire
		t.View.Join(mc.scView.ents)
	case 3: // release
		if mc.scView.Join(t.View.ents) {
			mc.scDirty = true
		}
	default: // seq_cst and acq_rel
		t.View.Join(mc.scView.ents)
		if mc.scView.Join(t.View.ents) {
			mc.scDirty = true
		}
	}
}
