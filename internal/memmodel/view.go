package memmodel

// ViewEntry is one location of a view: the minimum message timestamp a
// thread may read at Addr.
type ViewEntry struct {
	Addr Addr
	TS   int
}

// View maps locations to the minimum message timestamp a thread must
// observe. It holds only the locations the thread has seen, as entries
// sorted by address with positive timestamps; a missing location is at
// timestamp 0 (the initial message). A view therefore grows with what a
// thread has observed, not with the module's size: a floor lookup is a
// binary search, a join is a merge and a snapshot is one copy.
type View struct {
	ents []ViewEntry
	// spare is the merge buffer Join swaps with ents, so a join that adds
	// locations allocates only while the buffers grow.
	spare []ViewEntry
}

// search returns the index of a in the view, or where it would go.
func search(ents []ViewEntry, a Addr) (int, bool) {
	lo, hi := 0, len(ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ents[m].Addr < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ents) && ents[lo].Addr == a
}

// Floor returns the view's timestamp at a (0 when a is absent).
func (v *View) Floor(a Addr) int {
	if i, ok := search(v.ents, a); ok {
		return v.ents[i].TS
	}
	return 0
}

// Raise lifts the view's timestamp at a to ts if it is lower.
func (v *View) Raise(a Addr, ts int) {
	i, ok := search(v.ents, a)
	if ok {
		if v.ents[i].TS < ts {
			v.ents[i].TS = ts
		}
		return
	}
	if ts <= 0 {
		return
	}
	v.ents = append(v.ents, ViewEntry{})
	copy(v.ents[i+1:], v.ents[i:])
	v.ents[i] = ViewEntry{Addr: a, TS: ts}
}

// Join raises v to include o, returning whether v changed.
func (v *View) Join(o []ViewEntry) bool {
	// First pass: raise shared locations in place and count the ones v
	// lacks. Most joins add nothing new and never reach the merge.
	missing, changed := 0, false
	i := 0
	for _, e := range o {
		for i < len(v.ents) && v.ents[i].Addr < e.Addr {
			i++
		}
		if i < len(v.ents) && v.ents[i].Addr == e.Addr {
			if v.ents[i].TS < e.TS {
				v.ents[i].TS = e.TS
				changed = true
			}
			continue
		}
		if e.TS > 0 {
			missing++
		}
	}
	if missing == 0 {
		return changed
	}
	out := v.spare[:0]
	i = 0
	for _, e := range o {
		for i < len(v.ents) && v.ents[i].Addr < e.Addr {
			out = append(out, v.ents[i])
			i++
		}
		if i < len(v.ents) && v.ents[i].Addr == e.Addr {
			continue // already raised by the first pass
		}
		if e.TS > 0 {
			out = append(out, e)
		}
	}
	out = append(out, v.ents[i:]...)
	v.spare = v.ents[:0]
	v.ents = out
	return true
}

// Reset empties the view, keeping its buffers.
func (v *View) Reset() { v.ents = v.ents[:0] }
