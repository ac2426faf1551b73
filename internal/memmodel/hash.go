package memmodel

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose
// output bits all depend on all input bits. The incremental state
// hashes below combine per-component hashes with XOR (a multiset
// combine), which is only collision-resistant when each component hash
// is well mixed first.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix64 exposes the mixer for clients composing their own incremental
// state hashes (the VM's flat memory backend).
func Mix64(x uint64) uint64 { return mix64(x) }

// entriesHash is the order-independent hash of a view's entries: the
// XOR of a mixed (address, timestamp) pair per entry.
func entriesHash(ents []ViewEntry) uint64 {
	var h uint64
	for _, e := range ents {
		h ^= mix64(uint64(e.Addr)*0x9e3779b97f4a7c15 ^ uint64(e.TS))
	}
	return h
}

// StateHash returns an order-independent hash of the view: the XOR of a
// mixed (address, timestamp) pair per location. It is cheap enough to
// recompute per dirty thread on every visible step of the model
// checker.
func (v *View) StateHash() uint64 { return entriesHash(v.ents) }

// msgHash hashes one message (value, timestamp, released view).
func msgHash(m Msg) uint64 {
	h := mix64(uint64(m.Val)*0x2545f4914f6cdd1d ^ uint64(m.TS))
	if m.Rel != nil {
		h ^= mix64(entriesHash(m.Rel) ^ 0xa0761d6478bd642f)
	}
	return h
}

// addrTag folds an address into its history hash so identical histories
// at different addresses do not cancel under the XOR combine.
func addrTag(a Addr, histHash uint64) uint64 {
	return mix64(histHash ^ mix64(uint64(a)))
}

// StateAcc returns the hash of the machine's memory state: every
// touched location's message history plus the global SC view.
// Histories are append-only, so each location's hash is an FNV-style
// chain over its message hashes, and the machine XORs the
// address-tagged location hashes (XOR lets one location's update
// replace its old contribution in O(1)). The chains are extended here,
// for the locations written since the last call, so executions that
// never ask for a state hash (stress schedules) never pay for one.
func (mc *Machine) StateAcc() uint64 {
	for _, c := range mc.pending {
		cl := mc.cells.At(c)
		h := cl.acc
		mc.acc ^= addrTag(cl.addr, h)
		for _, m := range cl.hist[cl.hashed:] {
			h = h*1099511628211 ^ msgHash(m)
		}
		cl.acc, cl.hashed = h, len(cl.hist)
		mc.acc ^= addrTag(cl.addr, h)
	}
	mc.pending = mc.pending[:0]
	if mc.scDirty {
		mc.scHash = mix64(mc.scView.StateHash() ^ 0x8bb84b93962eacc9)
		mc.scDirty = false
	}
	return mc.acc ^ mc.scHash
}
