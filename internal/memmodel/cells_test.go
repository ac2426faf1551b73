package memmodel

import (
	"math/rand"
	"slices"
	"testing"
)

// denseCells is the per-cell table as it was before slots: one state
// per cell number up to the largest touched, kept verbatim apart from
// renames. It is the reference TestCellsMatchDense holds Cells to.
type denseCells[T any] struct {
	dense, over []T
}

// At returns the state of cell c, growing the table to hold it. The
// pointer is valid until the table next grows.
func (s *denseCells[T]) At(c Cell) *T {
	if c >= 0 {
		if int(c) >= len(s.dense) {
			s.dense = denseGrow(s.dense, int(c)+1)
		}
		return &s.dense[c]
	}
	i := int(^c)
	if i >= len(s.over) {
		s.over = denseGrow(s.over, i+1)
	}
	return &s.over[i]
}

// Has returns the state of cell c, or nil when the table never grew to
// it (the zero state).
func (s *denseCells[T]) Has(c Cell) *T {
	if c >= 0 {
		if int(c) < len(s.dense) {
			return &s.dense[c]
		}
		return nil
	}
	if i := int(^c); i < len(s.over) {
		return &s.over[i]
	}
	return nil
}

// denseGrow extends xs to length n with zero values, reusing spare capacity
// (whose elements a caller's reset already cleared).
func denseGrow[T any](xs []T, n int) []T {
	if n <= cap(xs) {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]T, n-cap(xs))...)
}

// testState is a per-cell state shaped like the engines' own: a scalar,
// a flag marking it listed for reset, and an inner slice a reset
// truncates in place.
type testState struct {
	val  int64
	live bool
	hist []int64
}

// stateOf returns the state behind p, nil reading as the zero state.
func stateOf(p *testState) testState {
	if p == nil {
		return testState{}
	}
	return *p
}

func sameState(a, b testState) bool {
	return a.val == b.val && a.live == b.live && slices.Equal(a.hist, b.hist)
}

// cellsPair drives a Cells and the dense reference through the same
// trace, listing touched cells for an in-place reset as the engines do.
type cellsPair struct {
	got     Cells[testState]
	want    denseCells[testState]
	touched []Cell
	seen    map[Cell]bool
}

// touch writes k into cell c's state in both tables, through one At
// per table, as an engine's access does.
func (p *cellsPair) touch(c Cell, k int64) {
	for _, s := range []*testState{p.got.At(c), p.want.At(c)} {
		s.live = true
		s.val += k
		s.hist = append(s.hist, k)
	}
	p.seen[c] = true
	if !slices.Contains(p.touched, c) {
		p.touched = append(p.touched, c)
	}
}

// reset clears every touched state in place in both tables, keeping
// its inner slice's capacity.
func (p *cellsPair) reset() {
	for _, c := range p.touched {
		for _, s := range []*testState{p.got.At(c), p.want.At(c)} {
			*s = testState{hist: s.hist[:0]}
		}
	}
	p.touched = p.touched[:0]
}

// check compares every cell the trace ever named in both tables.
func (p *cellsPair) check(t *testing.T, step int, what string) {
	t.Helper()
	for c := range p.seen {
		if g, w := stateOf(p.got.Has(c)), stateOf(p.want.Has(c)); !sameState(g, w) {
			t.Fatalf("step %d (%s): cell %d = %+v, dense reference %+v", step, what, c, g, w)
		}
	}
}

// TestCellsMatchDense: a slot table holds exactly the states of the
// dense per-cell table it replaced, over random traces of At, Has and
// in-place resets across dense and overflow cells, including a first
// touch far above the last touched cell.
func TestCellsMatchDense(t *testing.T) {
	for trace := int64(0); trace < 200; trace++ {
		r := rand.New(rand.NewSource(trace))
		p := &cellsPair{seen: make(map[Cell]bool)}
		p.touch(3, 1)
		p.touch(4100, 2)
		p.check(t, 0, "far first touch")
		hot := []Cell{0, 1, 3, 17, 4096, 4100, ^Cell(0), ^Cell(2)}
		for step := 1; step < 300; step++ {
			var c Cell
			switch r.Intn(4) {
			case 0:
				c = hot[r.Intn(len(hot))]
			case 1:
				c = Cell(r.Intn(5000))
			case 2:
				c = ^Cell(r.Intn(12))
			default:
				c = Cell(r.Intn(64))
			}
			what := ""
			switch op := r.Intn(10); {
			case op < 6:
				p.touch(c, int64(r.Intn(100)))
				what = "At"
			case op < 9:
				p.seen[c] = true
				if g, w := p.got.Has(c), p.want.Has(c); !sameState(stateOf(g), stateOf(w)) {
					t.Fatalf("trace %d step %d: Has(%d) = %+v, dense reference %+v", trace, step, c, stateOf(g), stateOf(w))
				}
				what = "Has"
			default:
				p.reset()
				what = "reset"
			}
			p.check(t, step, what)
		}
	}
}
