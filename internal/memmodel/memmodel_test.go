package memmodel

import (
	"testing"
	"testing/quick"
)

// fixedOracle replays a scripted sequence of read choices, then always
// picks the newest message.
type fixedOracle struct {
	picks []int
	i     int
}

func (o *fixedOracle) PickRead(_ Addr, n int) int {
	if o.i < len(o.picks) {
		p := o.picks[o.i]
		o.i++
		if p < n {
			return p
		}
	}
	return n - 1
}

func TestViewJoin(t *testing.T) {
	a := viewOf(map[Addr]int{1: 3, 2: 1})
	b := viewOf(map[Addr]int{2: 5, 4: 2})
	if !a.Join(b.ents) {
		t.Fatal("join reported no change")
	}
	if a.Floor(1) != 3 || a.Floor(2) != 5 || a.Floor(4) != 2 {
		t.Fatalf("join result %v", a.ents)
	}
	if a.Join(b.ents) {
		t.Fatal("second join changed view")
	}
	var c View
	c.Join(a.ents)
	c.Raise(1, 99)
	if a.Floor(1) != 3 {
		t.Fatal("join aliases the joined view")
	}
}

func TestSCMachineReadsNewest(t *testing.T) {
	mc := NewMachine(ModelSC, NewestOracle{})
	t0, t1 := NewThread(), NewThread()
	mc.Store(t0, 1, 10, OrdSC)
	mc.Store(t0, 1, 20, OrdSC)
	if got := mc.Load(t1, 1, OrdSC); got != 20 {
		t.Fatalf("SC load = %d, want 20", got)
	}
	if n := mc.HistoryLen(1); n != 3 {
		t.Fatalf("history = %d, want 3 (init + 2 stores)", n)
	}
}

// TestMessagePassingRelaxedAllowsStale: the MP weak behavior in machine
// terms — a relaxed flag read can observe the new flag while the msg
// read stays stale.
func TestMessagePassingRelaxedAllowsStale(t *testing.T) {
	oracle := &fixedOracle{picks: []int{1, 0}} // flag: new; msg: stale
	mc := NewMachine(ModelWMM, oracle)
	w, r := NewThread(), NewThread()
	const msg, flag = 1, 2
	mc.Store(w, msg, 42, OrdRelaxed)
	mc.Store(w, flag, 1, OrdRelaxed)
	if got := mc.Load(r, flag, OrdRelaxed); got != 1 {
		t.Fatalf("flag = %d", got)
	}
	if got := mc.Load(r, msg, OrdRelaxed); got != 0 {
		t.Fatalf("msg = %d, want stale 0", got)
	}
}

// TestMessagePassingReleaseAcquireForbidsStale: with release/acquire the
// flag read carries the writer's view, pinning the msg read.
func TestMessagePassingReleaseAcquireForbidsStale(t *testing.T) {
	oracle := &fixedOracle{picks: []int{1, 0}} // msg pick 0 must be overridden by floor
	mc := NewMachine(ModelWMM, oracle)
	w, r := NewThread(), NewThread()
	const msg, flag = 1, 2
	mc.Store(w, msg, 42, OrdRelaxed)
	mc.Store(w, flag, 1, OrdRelease)
	if got := mc.Load(r, flag, OrdAcquire); got != 1 {
		t.Fatalf("flag = %d", got)
	}
	// After the acquire join, only the new msg message is eligible.
	eligible := mc.EligibleReads(r, msg, OrdRelaxed)
	if len(eligible) != 1 || eligible[0] != 1 {
		t.Fatalf("eligible msg reads = %v, want [1]", eligible)
	}
	if got := mc.Load(r, msg, OrdRelaxed); got != 42 {
		t.Fatalf("msg = %d, want 42", got)
	}
}

// TestTSOMapping: plain accesses become release stores and acquire
// loads under TSO; under WMM they stay relaxed.
func TestTSOMapping(t *testing.T) {
	cases := []struct {
		model   Model
		ord     int
		isStore bool
		want    AccessOrd
	}{
		{ModelSC, 0, false, OrdSC},
		{ModelTSO, 0, false, OrdAcquire},
		{ModelTSO, 0, true, OrdRelease},
		{ModelWMM, 0, false, OrdRelaxed},
		{ModelWMM, 0, true, OrdRelaxed},
		{ModelWMM, 2, false, OrdAcquire},
		{ModelWMM, 3, true, OrdRelease},
		{ModelWMM, 5, true, OrdSC},
		{ModelTSO, 1, false, OrdAcquire},
	}
	for _, c := range cases {
		if got := EffectiveOrd(c.model, c.ord, c.isStore); got != c.want {
			t.Errorf("EffectiveOrd(%v, %d, store=%v) = %v, want %v",
				c.model, c.ord, c.isStore, got, c.want)
		}
	}
}

// TestStoreBufferingAllowedUnderTSO: both threads can read the initial
// values even after both stores (the defining TSO weakness).
func TestStoreBufferingAllowedUnderTSO(t *testing.T) {
	oracle := &fixedOracle{picks: []int{0, 0}}
	mc := NewMachine(ModelTSO, oracle)
	t0, t1 := NewThread(), NewThread()
	const x, y = 1, 2
	mc.Store(t0, x, 1, EffectiveOrd(ModelTSO, 0, true))
	mc.Store(t1, y, 1, EffectiveOrd(ModelTSO, 0, true))
	if got := mc.Load(t0, y, EffectiveOrd(ModelTSO, 0, false)); got != 0 {
		t.Fatalf("t0 read y = %d, want stale 0", got)
	}
	if got := mc.Load(t1, x, EffectiveOrd(ModelTSO, 0, false)); got != 0 {
		t.Fatalf("t1 read x = %d, want stale 0", got)
	}
}

// TestRMWReadsNewest: read-modify-writes always act on the newest
// message regardless of the thread's view.
func TestRMWReadsNewest(t *testing.T) {
	mc := NewMachine(ModelWMM, &fixedOracle{})
	t0, t1 := NewThread(), NewThread()
	mc.Store(t0, 1, 5, OrdRelaxed)
	r := mc.CmpXchg(t1, 1, 1, 5, 9, OrdAcqRel)
	if !r.Swapped || r.Old != 5 {
		t.Fatalf("cmpxchg = %+v", r)
	}
	r = mc.CmpXchg(t0, 1, 1, 5, 7, OrdAcqRel)
	if r.Swapped {
		t.Fatalf("stale cmpxchg succeeded: %+v", r)
	}
	old := mc.RMW(t0, 1, func(v int64) int64 { return v + 1 }, OrdAcqRel)
	if old != 9 || mc.Newest(1) != 10 {
		t.Fatalf("rmw old=%d newest=%d", old, mc.Newest(1))
	}
}

// TestFenceSynchronizes: release-fence/acquire-fence pairs transfer
// views through the global SC view.
func TestFenceSynchronizes(t *testing.T) {
	mc := NewMachine(ModelWMM, &fixedOracle{picks: []int{0}})
	w, r := NewThread(), NewThread()
	const msg = 1
	mc.Store(w, msg, 42, OrdRelaxed)
	mc.Fence(w, 5) // seq_cst: publishes w's view
	mc.Fence(r, 5) // seq_cst: joins the global view
	eligible := mc.EligibleReads(r, msg, OrdRelaxed)
	if len(eligible) != 1 || eligible[0] != 1 {
		t.Fatalf("eligible after fences = %v, want only the new message", eligible)
	}
}

// TestForkJoinViews: spawned threads inherit views; joining absorbs
// them.
func TestForkJoinViews(t *testing.T) {
	mc := NewMachine(ModelWMM, &fixedOracle{})
	parent := NewThread()
	mc.Store(parent, 1, 7, OrdRelaxed)
	child := parent.Fork()
	if child.View.Floor(1) != parent.View.Floor(1) {
		t.Fatal("fork lost view")
	}
	mc.Store(child, 2, 9, OrdRelaxed)
	parent.JoinThread(child)
	if parent.View.Floor(2) != child.View.Floor(2) {
		t.Fatal("join lost view")
	}
}

// Property: per-thread coherence — a thread's repeated reads of one
// location never observe older timestamps than before, for any oracle
// behavior.
func TestCoherenceProperty(t *testing.T) {
	prop := func(picks []uint8, vals []uint8) bool {
		oracle := &fixedOracle{}
		for _, p := range picks {
			oracle.picks = append(oracle.picks, int(p%4))
		}
		mc := NewMachine(ModelWMM, oracle)
		w, r := NewThread(), NewThread()
		for _, v := range vals {
			mc.Store(w, 1, int64(v), OrdRelaxed)
		}
		last := -1
		for i := 0; i < len(picks); i++ {
			before := r.View.Floor(1)
			mc.Load(r, 1, OrdRelaxed)
			after := r.View.Floor(1)
			if after < before || after < last {
				return false
			}
			last = after
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: state serialization is deterministic and view-sensitive.
func TestAppendStateProperty(t *testing.T) {
	prop := func(vals []uint8) bool {
		mc1 := NewMachine(ModelWMM, &fixedOracle{})
		mc2 := NewMachine(ModelWMM, &fixedOracle{})
		t1, t2 := NewThread(), NewThread()
		for i, v := range vals {
			ord := OrdRelaxed
			if v%3 == 0 {
				ord = OrdRelease
			}
			mc1.Store(t1, Addr(v%8), int64(v), ord)
			mc2.Store(t2, Addr(v%8), int64(v), ord)
			_ = i
		}
		a := string(mc1.AppendState(nil))
		b := string(mc2.AppendState(nil))
		return a == b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
