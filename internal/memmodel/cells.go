package memmodel

// Cell is the dense number of a shared memory cell. The VM owns the
// memory layout and numbers cells itself: globals from 0 in module
// order, then heap cells as malloc hands them out, so a cell's number is
// arithmetic on its address. An address outside every region is an
// overflow cell with a negative number (^i for the i-th such address of
// an execution), so it keeps a history of its own without growing the
// dense tables.
type Cell int32

// Cells holds per-cell state of type T, indexed by Cell: dense cells in
// one slice and overflow cells in another, both grown on first touch.
type Cells[T any] struct {
	dense, over []T
}

// At returns the state of cell c, growing the table to hold it. The
// pointer is valid until the table next grows.
func (s *Cells[T]) At(c Cell) *T {
	if c >= 0 {
		if int(c) >= len(s.dense) {
			s.dense = grow(s.dense, int(c)+1)
		}
		return &s.dense[c]
	}
	i := int(^c)
	if i >= len(s.over) {
		s.over = grow(s.over, i+1)
	}
	return &s.over[i]
}

// Has returns the state of cell c, or nil when the table never grew to
// it (the zero state).
func (s *Cells[T]) Has(c Cell) *T {
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

// grow extends xs to length n with zero values, reusing spare capacity
// (whose elements a caller's reset already cleared).
func grow[T any](xs []T, n int) []T {
	if n <= cap(xs) {
		return xs[:n]
	}
	return append(xs[:cap(xs)], make([]T, n-cap(xs))...)
}
