package race

// Fingerprint hashes the detector's happens-before state: the thread
// clocks, every location's write/read epochs and synchronization
// clocks, and the global fence clock. The model checker mixes this into
// its visited-state hash when race mode is on, so a state is only
// pruned when the memory state AND the race-detection state match —
// without it, exploration could prune a path whose clock assignment
// would have exposed a race the first visit's assignment ordered.
func (d *Detector) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mixVC := func(v VC) {
		mix(uint64(len(v)))
		for _, c := range v {
			mix(uint64(c))
		}
	}
	mix(uint64(len(d.clocks)))
	for _, c := range d.clocks {
		mixVC(c)
	}
	mixVC(d.scClock)

	d.orderTouched()
	for _, c := range d.order {
		l := d.locs.At(c)
		mix(uint64(l.addr))
		if l.hasWrite {
			mix(uint64(l.write.thread)<<32 | uint64(l.write.clock))
		} else {
			mix(0)
		}
		mix(uint64(len(l.reads)))
		for _, r := range l.reads {
			mix(uint64(r.thread)<<32 | uint64(r.clock))
		}
		mixVC(l.sync)
	}
	return h
}

// orderTouched extends d.order, the touched cells sorted by address,
// with the cells touched since the last call. Cells are numbered in
// address order except overflow cells, and an execution touches a
// handful of new locations between two visible steps, so insertion
// keeps the order without a sort per call.
func (d *Detector) orderTouched() {
	for _, c := range d.touched[d.nOrdered:] {
		a := d.locs.At(c).addr
		i := len(d.order)
		d.order = append(d.order, c)
		for i > 0 && d.locs.At(d.order[i-1]).addr > a {
			d.order[i] = d.order[i-1]
			i--
		}
		d.order[i] = c
	}
	d.nOrdered = len(d.touched)
}
