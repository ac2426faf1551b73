package memmodel

import (
	"encoding/binary"
	"sort"
)

// Test conveniences over the machine's cell API: the tests address small
// locations directly, using each address as its own cell number.

// NewestOracle always reads the newest eligible message.
type NewestOracle struct{}

// PickRead returns the newest message index.
func (NewestOracle) PickRead(_ Addr, n int) int { return n - 1 }

// Load performs a load at address a (cell a).
func (mc *Machine) Load(t *Thread, a Addr, ord AccessOrd) int64 {
	v, _ := mc.LoadT(t, Cell(a), a, ord)
	return v
}

// Store appends a new message at address a (cell a).
func (mc *Machine) Store(t *Thread, a Addr, v int64, ord AccessOrd) {
	mc.StoreT(t, Cell(a), a, v, ord)
}

// RMW atomically applies f to the newest value at address a (cell a).
func (mc *Machine) RMW(t *Thread, a Addr, f func(int64) int64, ord AccessOrd) int64 {
	return mc.RMWT(t, Cell(a), a, f, ord).Old
}

// Newest returns the newest value at address a (cell a).
func (mc *Machine) Newest(a Addr) int64 {
	h := mc.loc(Cell(a), a).hist
	return h[len(h)-1].Val
}

// HistoryLen returns the number of messages at address a (cell a),
// including the initial message.
func (mc *Machine) HistoryLen(a Addr) int { return len(mc.loc(Cell(a), a).hist) }

// EligibleReads returns the timestamps a load may read at address a
// (cell a).
func (mc *Machine) EligibleReads(t *Thread, a Addr, ord AccessOrd) []int {
	start, n := mc.eligible(t, mc.loc(Cell(a), a), a, ord)
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// Fork returns a new thread inheriting t's view.
func (t *Thread) Fork() *Thread {
	c := NewThread()
	c.JoinThread(t)
	return c
}

// viewOf builds a view from a map.
func viewOf(m map[Addr]int) View {
	var v View
	for a, ts := range m {
		v.Raise(a, ts)
	}
	return v
}

// AppendState serializes the view canonically (sorted by address).
func (v *View) AppendState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.ents)))
	for _, e := range v.ents {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Addr))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
	}
	return buf
}

// AppendState serializes the machine's memory state canonically: every
// touched location's message history (values and released views) plus
// the global SC view.
func (mc *Machine) AppendState(buf []byte) []byte {
	cells := append([]Cell(nil), mc.touched...)
	sort.Slice(cells, func(i, j int) bool { return mc.cells.At(cells[i]).addr < mc.cells.At(cells[j]).addr })
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(cells)))
	for _, c := range cells {
		cl := mc.cells.At(c)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cl.addr))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(cl.hist)))
		for _, m := range cl.hist {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Val))
			if m.Rel != nil {
				buf = append(buf, 1)
				rel := View{ents: m.Rel}
				buf = rel.AppendState(buf)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return mc.scView.AppendState(buf)
}
