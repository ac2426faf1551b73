package memmodel

// The map-based view machine this package shipped before cells: every
// per-location table keyed by address, views as maps, histories hashed
// as they grow. It is the reference the differential tests hold the
// dense machine to, and it is kept verbatim apart from renames.

import (
	"encoding/binary"
	"sort"
)

// refOracle is the reference machine's read oracle: it picks an index
// into the eligible timestamps.
type refOracle interface {
	pickRead(addr Addr, eligible []int) int
}

// refView maps locations to the minimum message timestamp a thread must
// observe. Missing entries mean timestamp 0 (the initial message).
type refView map[Addr]int

// Join raises v to include o, returning whether v changed.
func (v refView) Join(o refView) bool {
	changed := false
	for a, ts := range o {
		if v[a] < ts {
			v[a] = ts
			changed = true
		}
	}
	return changed
}

// Clone returns a copy of the view.
func (v refView) Clone() refView {
	c := make(refView, len(v))
	for a, ts := range v {
		c[a] = ts
	}
	return c
}

// refMsg is one write in a location's history.
type refMsg struct {
	Val int64
	TS  int
	// Rel is the view released with the message (release/SC stores and
	// RMWs); nil for relaxed stores.
	Rel refView
}

// refMachine is a view-based shared memory shared by all threads of an
// execution.
type refMachine struct {
	Model Model
	hist  map[Addr][]refMsg
	// scView is the global view joined by SC accesses and fences,
	// modelling the total order implicit barriers establish.
	scView refView
	oracle refOracle
	// initial values for lazily materialized locations.
	init map[Addr]int64
	// Incremental state-hash accumulators (see StateAcc): acc XORs the
	// address-tagged per-address history hashes in addrAcc; scHash caches
	// the SC-view hash, recomputed when scDirty.
	acc     uint64
	addrAcc map[Addr]uint64
	scHash  uint64
	scDirty bool
}

// newRefMachine returns an empty machine under the given model using the
// supplied oracle for weak read choices.
func newRefMachine(model Model, oracle refOracle) *refMachine {
	return &refMachine{
		Model:   model,
		hist:    make(map[Addr][]refMsg),
		scView:  make(refView),
		oracle:  oracle,
		init:    make(map[Addr]int64),
		addrAcc: make(map[Addr]uint64),
	}
}

// Reset restores the machine to its empty initial state while keeping
// the allocated maps, so one machine can serve many executions (the
// model checker's VM reuse). Callers must re-apply initial values
// (SetInit) afterwards.
func (mc *refMachine) Reset() {
	clear(mc.hist)
	clear(mc.scView)
	clear(mc.init)
	clear(mc.addrAcc)
	mc.acc = 0
	mc.scHash = 0
	mc.scDirty = false
}

// SetInit records the initial value of a location (default 0).
func (mc *refMachine) SetInit(a Addr, v int64) { mc.init[a] = v }

// Final returns the newest value at a location — the value every thread
// would agree on after full synchronization. Used by the differential
// harness to compare final states across models and schedulers.
func (mc *refMachine) Final(a Addr) int64 {
	if h, ok := mc.hist[a]; ok && len(h) > 0 {
		return h[len(h)-1].Val
	}
	return mc.init[a]
}

// history returns the message list of a location, materializing the
// initial message on first touch.
func (mc *refMachine) history(a Addr) []refMsg {
	h, ok := mc.hist[a]
	if !ok {
		h = []refMsg{{Val: mc.init[a], TS: 0}}
		mc.hist[a] = h
		mc.noteAppend(a, h[0])
	}
	return h
}

// refThread is the per-thread memory state: its view.
type refThread struct {
	refView refView
}

// newRefThread returns a fresh thread view.
func newRefThread() *refThread { return &refThread{refView: make(refView)} }

// Reset clears the thread's view, keeping the allocated map (VM reuse
// across model-checker executions).
func (t *refThread) Reset() { clear(t.refView) }

// Fork returns a new thread inheriting the parent's view (a spawned
// thread synchronizes with its creator).
func (t *refThread) Fork() *refThread { return &refThread{refView: t.refView.Clone()} }

// JoinThread absorbs a finished thread's view into t (a joining thread
// synchronizes with the joined thread's final state).
func (t *refThread) JoinThread(o *refThread) { t.refView.Join(o.refView) }

// EligibleReads returns the timestamps a load with the given effective
// ordering may read at a. On an SC machine every load sees only the
// newest message. Under the weak models, loads — including SC-atomic
// loads — may read any message at or above the thread's view floor:
// C11/RC11 allows an SC load to read a stale write as long as the SC
// total order stays consistent, and that staleness is precisely the
// behavior that breaks sequence locks whose counters were made SC
// without fences (the paper's Spin-level ablation of Table 2). SC
// ordering between fenced accesses is restored by Fence's global-view
// synchronization; atomic read-modify-writes always read the newest
// message (hardware exclusives fail on stale lines).
func (mc *refMachine) EligibleReads(t *refThread, a Addr, ord AccessOrd) []int {
	h := mc.history(a)
	if mc.Model == ModelSC {
		return []int{len(h) - 1}
	}
	floor := t.refView[a]
	out := make([]int, 0, len(h)-floor)
	for ts := floor; ts < len(h); ts++ {
		out = append(out, ts)
	}
	return out
}

// Load performs a load with the given effective ordering, consulting
// the oracle for the read choice.
func (mc *refMachine) Load(t *refThread, a Addr, ord AccessOrd) int64 {
	v, _ := mc.LoadT(t, a, ord)
	return v
}

// LoadT is Load additionally reporting the timestamp of the message
// read — the identity instrumentation (race detection) needs to follow
// reads-from edges precisely.
func (mc *refMachine) LoadT(t *refThread, a Addr, ord AccessOrd) (int64, int) {
	eligible := mc.EligibleReads(t, a, ord)
	ts := eligible[mc.oracle.pickRead(a, eligible)]
	return mc.finishLoad(t, a, ord, ts), ts
}

// finishLoad applies the view effects of reading message ts at a.
func (mc *refMachine) finishLoad(t *refThread, a Addr, ord AccessOrd, ts int) int64 {
	h := mc.history(a)
	m := h[ts]
	if t.refView[a] < ts {
		t.refView[a] = ts // per-location coherence for this thread
	}
	if ord.acquires() && m.Rel != nil {
		t.refView.Join(m.Rel)
	}
	return m.Val
}

// Store appends a new message at a.
func (mc *refMachine) Store(t *refThread, a Addr, v int64, ord AccessOrd) {
	mc.StoreT(t, a, v, ord)
}

// StoreT is Store additionally reporting the timestamp of the new
// message.
func (mc *refMachine) StoreT(t *refThread, a Addr, v int64, ord AccessOrd) int {
	h := mc.history(a)
	m := refMsg{Val: v, TS: len(h)}
	if ord.releases() {
		m.Rel = t.refView.Clone()
		m.Rel[a] = m.TS
	}
	mc.hist[a] = append(h, m)
	mc.noteAppend(a, m)
	t.refView[a] = m.TS
	return m.TS
}

// refRMWResult reports the outcome of a read-modify-write. ReadTS is the
// timestamp of the message read (always the newest); WriteTS is the
// timestamp of the appended message, or -1 when a compare-exchange
// failed and wrote nothing.
type refRMWResult struct {
	Old     int64
	Swapped bool
	ReadTS  int
	WriteTS int
}

// CmpXchg atomically compares the newest message at a with expected and,
// on match, appends nv. Atomic read-modify-writes always read the newest
// message (exclusives fail otherwise on real hardware, retrying until
// current).
func (mc *refMachine) CmpXchg(t *refThread, a Addr, expected, nv int64, ord AccessOrd) refRMWResult {
	h := mc.history(a)
	newest := len(h) - 1
	old := mc.finishLoad(t, a, ord.loadPart(), newest)
	if old != expected {
		return refRMWResult{Old: old, ReadTS: newest, WriteTS: -1}
	}
	wts := mc.StoreT(t, a, nv, ord.storePart())
	return refRMWResult{Old: old, Swapped: true, ReadTS: newest, WriteTS: wts}
}

// RMW atomically applies f to the newest value at a.
func (mc *refMachine) RMW(t *refThread, a Addr, f func(int64) int64, ord AccessOrd) int64 {
	return mc.RMWT(t, a, f, ord).Old
}

// RMWT is RMW additionally reporting the message timestamps involved.
func (mc *refMachine) RMWT(t *refThread, a Addr, f func(int64) int64, ord AccessOrd) refRMWResult {
	h := mc.history(a)
	newest := len(h) - 1
	old := mc.finishLoad(t, a, ord.loadPart(), newest)
	wts := mc.StoreT(t, a, f(old), ord.storePart())
	return refRMWResult{Old: old, Swapped: true, ReadTS: newest, WriteTS: wts}
}

// Fence applies a fence: SC fences synchronize bidirectionally with the
// global SC view (modelling DMB ISH cumulativity); acquire/release
// fences join or publish accordingly.
func (mc *refMachine) Fence(t *refThread, staticOrd int) {
	// Under TSO and SC the machine is already strong enough that fences
	// only need the SC-view synchronization; under WMM the distinction
	// matters for acquire/release fences.
	switch staticOrd {
	case 2: // acquire
		t.refView.Join(mc.scView)
	case 3: // release
		if mc.scView.Join(t.refView) {
			mc.scDirty = true
		}
	default: // seq_cst and acq_rel
		t.refView.Join(mc.scView)
		if mc.scView.Join(t.refView) {
			mc.scDirty = true
		}
	}
}

// Newest returns the newest value at a (debugging and final-state
// assertions).
func (mc *refMachine) Newest(a Addr) int64 {
	h := mc.history(a)
	return h[len(h)-1].Val
}

// HistoryLen returns the number of messages at a (including the initial
// message), used by tests and state hashing.
func (mc *refMachine) HistoryLen(a Addr) int { return len(mc.history(a)) }

// StateHash returns an order-independent hash of the view: the XOR of a
// mixed (address, timestamp) pair per nonzero entry. Equal views hash
// equal regardless of map iteration order, and the hash is cheap enough
// to recompute per dirty thread on every visible step of the model
// checker.
func (v refView) StateHash() uint64 {
	var h uint64
	for a, ts := range v {
		if ts != 0 {
			h ^= mix64(uint64(a)*0x9e3779b97f4a7c15 ^ uint64(ts))
		}
	}
	return h
}

// refMsgHash hashes one message (value, timestamp, released view).
func refMsgHash(m refMsg) uint64 {
	h := mix64(uint64(m.Val)*0x2545f4914f6cdd1d ^ uint64(m.TS))
	if m.Rel != nil {
		h ^= mix64(m.Rel.StateHash() ^ 0xa0761d6478bd642f)
	}
	return h
}

// refAddrTag folds an address into its history hash so identical histories
// at different addresses do not cancel under the XOR combine.
func refAddrTag(a Addr, histHash uint64) uint64 {
	return mix64(histHash ^ mix64(uint64(a)))
}

// noteAppend folds a newly appended (or materialized) message at a into
// the machine's incremental state accumulator. Histories are
// append-only, so the per-address running hash is an FNV-style chain
// over the message hashes, and the machine-level accumulator XORs the
// address-tagged per-address hashes (XOR lets one address's update
// replace its old contribution in O(1)).
func (mc *refMachine) noteAppend(a Addr, m refMsg) {
	old := mc.addrAcc[a]
	mc.acc ^= refAddrTag(a, old)
	nh := old*1099511628211 ^ refMsgHash(m)
	mc.addrAcc[a] = nh
	mc.acc ^= refAddrTag(a, nh)
}

// StateAcc returns the incrementally maintained hash of the machine's
// memory state: every touched location's message history plus the
// global SC view. It replaces serializing the full state (AppendState)
// on every visible step of the model checker; AppendState remains the
// canonical (and slower) form.
func (mc *refMachine) StateAcc() uint64 {
	if mc.scDirty {
		mc.scHash = mix64(mc.scView.StateHash() ^ 0x8bb84b93962eacc9)
		mc.scDirty = false
	}
	return mc.acc ^ mc.scHash
}

// AppendState serializes the view canonically (sorted by address) for
// state hashing in the model checker.
func (v refView) AppendState(buf []byte) []byte {
	addrs := make([]Addr, 0, len(v))
	for a, ts := range v {
		if ts != 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v[a]))
	}
	return buf
}

// AppendState serializes the machine's memory state canonically for
// state hashing: every touched location's message history (values and
// released views) plus the global SC view.
func (mc *refMachine) AppendState(buf []byte) []byte {
	addrs := make([]Addr, 0, len(mc.hist))
	for a := range mc.hist {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(addrs)))
	for _, a := range addrs {
		h := mc.hist[a]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(h)))
		for _, m := range h {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Val))
			if m.Rel != nil {
				buf = append(buf, 1)
				buf = m.Rel.AppendState(buf)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return mc.scView.AppendState(buf)
}
