package memmodel

import (
	"math/rand"
	"testing"
)

// scriptOracle answers both machines' read choices from one script and
// records how many messages each was offered.
type scriptOracle struct {
	pick   int
	counts []int
}

func (o *scriptOracle) PickRead(_ Addr, n int) int {
	o.counts = append(o.counts, n)
	return o.pick % n
}

func (o *scriptOracle) pickRead(_ Addr, eligible []int) int {
	o.counts = append(o.counts, len(eligible))
	return o.pick % len(eligible)
}

// lockstep drives the dense machine and the map-based reference through
// the same operations. Addresses 0x1000.. are dense cells 0..; the
// overflow addresses get negative cells on first touch, renumbered per
// execution as the VM does.
type lockstep struct {
	t        *testing.T
	model    Model
	mc       *Machine
	ref      *refMachine
	newO     *scriptOracle
	refO     *scriptOracle
	th       []*Thread
	refTh    []*refThread
	overflow map[Addr]Cell
	inits    map[Addr]int64
}

var (
	denseAddrs    = []Addr{0x1000, 0x1001, 0x1002, 0x1003, 0x1004}
	overflowAddrs = []Addr{0, 0x7, 0x5000_0000, 0x1000_0040}
	allAddrs      = append(append([]Addr(nil), denseAddrs...), overflowAddrs...)
)

func newLockstep(t *testing.T, model Model) *lockstep {
	l := &lockstep{t: t, model: model, newO: &scriptOracle{}, refO: &scriptOracle{}}
	l.mc = NewMachine(model, l.newO)
	l.ref = newRefMachine(model, l.refO)
	l.inits = map[Addr]int64{0x1001: 5, 0x1003: -2, 0x7: 9}
	init := make([]int64, len(denseAddrs))
	for i, a := range denseAddrs {
		init[i] = l.inits[a]
	}
	l.mc.SetInits(init)
	l.begin()
	return l
}

// begin starts an execution: initial values and two root threads.
func (l *lockstep) begin() {
	l.overflow = map[Addr]Cell{}
	for a, v := range l.inits {
		l.ref.SetInit(a, v)
	}
	l.th = []*Thread{NewThread(), NewThread()}
	l.refTh = []*refThread{newRefThread(), newRefThread()}
}

func (l *lockstep) reset() {
	l.mc.Reset()
	l.ref.Reset()
	l.begin()
}

func (l *lockstep) cell(a Addr) Cell {
	for i, d := range denseAddrs {
		if d == a {
			return Cell(i)
		}
	}
	c, ok := l.overflow[a]
	if !ok {
		c = ^Cell(len(l.overflow))
		l.overflow[a] = c
		if v := l.inits[a]; v != 0 {
			l.mc.SetInit(c, v)
		}
	}
	return c
}

// check compares everything observable: final values, every thread's
// view and its hash, the oracle's eligible counts and the machines'
// state hashes.
func (l *lockstep) check(step int, what string) {
	t := l.t
	t.Helper()
	for _, a := range allAddrs {
		if got, want := l.final(a), l.ref.Final(a); got != want {
			t.Fatalf("step %d (%s): Final(%#x) = %d, reference %d", step, what, a, got, want)
		}
	}
	for i := range l.th {
		v, rv := &l.th[i].View, l.refTh[i].refView
		for _, a := range allAddrs {
			if v.Floor(a) != rv[a] {
				t.Fatalf("step %d (%s): thread %d floor(%#x) = %d, reference %d", step, what, i, a, v.Floor(a), rv[a])
			}
		}
		if len(v.ents) != len(rv) {
			t.Fatalf("step %d (%s): thread %d view has %d locations, reference %d", step, what, i, len(v.ents), len(rv))
		}
		if v.StateHash() != rv.StateHash() {
			t.Fatalf("step %d (%s): thread %d view hash differs", step, what, i)
		}
	}
	if len(l.newO.counts) != len(l.refO.counts) {
		t.Fatalf("step %d (%s): %d read choices, reference %d", step, what, len(l.newO.counts), len(l.refO.counts))
	}
	for i := range l.newO.counts {
		if l.newO.counts[i] != l.refO.counts[i] {
			t.Fatalf("step %d (%s): read choice %d offered %d messages, reference %d", step, what, i, l.newO.counts[i], l.refO.counts[i])
		}
	}
	if got, want := l.mc.StateAcc(), l.ref.StateAcc(); got != want {
		t.Fatalf("step %d (%s): StateAcc = %#x, reference %#x", step, what, got, want)
	}
}

// final reads the dense machine's final value at a without numbering
// an untouched overflow address, which still holds its initial value.
func (l *lockstep) final(a Addr) int64 {
	for i, d := range denseAddrs {
		if d == a {
			return l.mc.Final(Cell(i))
		}
	}
	if c, ok := l.overflow[a]; ok {
		return l.mc.Final(c)
	}
	return l.inits[a]
}

var orders = []AccessOrd{OrdRelaxed, OrdAcquire, OrdRelease, OrdAcqRel, OrdSC}

// step performs one random operation on both machines and compares the
// results.
func (l *lockstep) step(r *rand.Rand, step int) string {
	t := l.t
	ti := r.Intn(len(l.th))
	th, rth := l.th[ti], l.refTh[ti]
	a := allAddrs[r.Intn(len(allAddrs))]
	ord := orders[r.Intn(len(orders))]
	l.newO.pick = r.Intn(8)
	l.refO.pick = l.newO.pick
	switch op := r.Intn(20); {
	case op < 7:
		got, gts := l.mc.LoadT(th, l.cell(a), a, ord)
		want, wts := l.ref.LoadT(rth, a, ord)
		if got != want || gts != wts {
			t.Fatalf("step %d: load %#x = (%d, ts %d), reference (%d, ts %d)", step, a, got, gts, want, wts)
		}
		return "load"
	case op < 12:
		v := int64(r.Intn(4))
		if got, want := l.mc.StoreT(th, l.cell(a), a, v, ord), l.ref.StoreT(rth, a, v, ord); got != want {
			t.Fatalf("step %d: store %#x ts %d, reference %d", step, a, got, want)
		}
		return "store"
	case op < 14:
		add := int64(1 + r.Intn(3))
		f := func(x int64) int64 { return x + add }
		if got, want := l.mc.RMWT(th, l.cell(a), a, f, ord), l.ref.RMWT(rth, a, f, ord); got != RMWResult(want) {
			t.Fatalf("step %d: rmw %#x = %+v, reference %+v", step, a, got, want)
		}
		return "rmw"
	case op < 16:
		exp := l.ref.Final(a)
		if r.Intn(3) == 0 {
			exp = int64(r.Intn(4))
		}
		nv := int64(r.Intn(4))
		if got, want := l.mc.CmpXchg(th, l.cell(a), a, exp, nv, ord), l.ref.CmpXchg(rth, a, exp, nv, ord); got != RMWResult(want) {
			t.Fatalf("step %d: cmpxchg %#x = %+v, reference %+v", step, a, got, want)
		}
		return "cmpxchg"
	case op < 18:
		fo := 1 + r.Intn(5) // relaxed .. seq_cst static orderings
		l.mc.Fence(th, fo)
		l.ref.Fence(rth, fo)
		return "fence"
	case op < 19 && len(l.th) < 6:
		c := NewThread()
		c.JoinThread(th)
		l.th = append(l.th, c)
		l.refTh = append(l.refTh, rth.Fork())
		return "spawn"
	default:
		oi := r.Intn(len(l.th))
		th.JoinThread(l.th[oi])
		rth.JoinThread(l.refTh[oi])
		return "join"
	}
}

// TestMachineMatchesReference runs random lockstep traces — loads at
// every eligible pick, stores, RMWs and cmpxchgs at every ordering,
// fences of every order, spawn forks and joins, overflow addresses, and
// Reset between executions — on the dense machine and the map-based
// reference, and requires identical values, timestamps, eligible counts,
// final values, views and state hashes throughout.
func TestMachineMatchesReference(t *testing.T) {
	for _, model := range []Model{ModelSC, ModelTSO, ModelWMM} {
		for seed := int64(1); seed <= 40; seed++ {
			l := newLockstep(t, model)
			r := rand.New(rand.NewSource(seed * 7919))
			for exec := 0; exec < 4; exec++ {
				for s := 0; s < 150; s++ {
					what := l.step(r, s)
					l.check(s, model.String()+" "+what)
				}
				l.reset()
				l.check(-1, model.String()+" reset")
			}
		}
	}
}
