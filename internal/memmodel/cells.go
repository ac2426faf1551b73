package memmodel

// Cell is the dense number of a shared memory cell. The VM owns the
// memory layout and numbers cells itself: globals from 0 in module
// order, then heap cells as malloc hands them out, so a cell's number is
// arithmetic on its address. An address outside every region is an
// overflow cell with a negative number (^i for the i-th such address of
// an execution), so it keeps a history of its own without growing the
// slot tables.
type Cell int32

// Cells holds per-cell state of type T, indexed by Cell. A module may
// number thousands of cells while an execution touches a handful, so
// dense cells map through a slot table (4 bytes per cell number) to
// states packed in first-touch order, one per distinct cell the table
// has seen; overflow cells keep their states in a slice of their own.
// A state stays in its slot for the table's life, so a caller's reset
// clears the touched states in place and their inner slices keep their
// capacity.
type Cells[T any] struct {
	// slot[c] is one plus the index in states of dense cell c's state,
	// or 0 when the table never saw c.
	slot   []int32
	states []T
	over   []T
}

// At returns the state of cell c, adding a zero state on first touch.
// The pointer is valid until At next sees a new cell: adding one may
// move every earlier state.
func (s *Cells[T]) At(c Cell) *T {
	if c >= 0 {
		if int(c) >= len(s.slot) {
			s.slot = grow(s.slot, int(c)+1)
		} else if i := s.slot[c]; i != 0 {
			return &s.states[i-1]
		}
		var zero T
		s.states = append(s.states, zero)
		s.slot[c] = int32(len(s.states))
		return &s.states[len(s.states)-1]
	}
	i := int(^c)
	if i >= len(s.over) {
		s.over = grow(s.over, i+1)
	}
	return &s.over[i]
}

// Has returns the state of cell c, or nil when the table never saw it
// (the zero state).
func (s *Cells[T]) Has(c Cell) *T {
	if c >= 0 {
		if int(c) < len(s.slot) {
			if i := s.slot[c]; i != 0 {
				return &s.states[i-1]
			}
		}
		return nil
	}
	if i := int(^c); i < len(s.over) {
		return &s.over[i]
	}
	return nil
}

// grow extends xs to length n with zero values, reusing spare capacity
// (whose elements a caller's reset already cleared).
func grow[T any](xs []T, n int) []T {
	if n <= cap(xs) {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]T, n-cap(xs))...)
}
