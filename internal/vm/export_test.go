package vm

import (
	"encoding/binary"
	"hash/fnv"
)

// OldStateHash is StateHash with every thread hashed the way the VM
// did before word-wise hashing: the thread's state, frames and view
// serialized into a buffer and hashed byte by byte with FNV-1a. The
// memory contribution is shared with StateHash. The state-hash split
// test holds the two hashes to the same equality classes.
func (v *VM) OldStateHash() uint64 {
	h := uint64(14695981039346656037)
	var buf []byte
	for _, t := range v.threads {
		var th uint64
		buf, th = oldHashThread(buf[:0], t)
		h = h*1099511628211 ^ th
	}
	return h*1099511628211 ^ v.stateAcc()
}

// oldHashThread is the byte-wise thread hash, kept verbatim.
func oldHashThread(buf []byte, t *thread) ([]byte, uint64) {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.state))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.barrierN))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.stackNext))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.frames)))
	for _, fr := range t.frames {
		buf = append(buf, fr.fn.Name...)
		buf = append(buf, 0)
		buf = append(buf, fr.blk.Name...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(fr.ip))
		for _, r := range fr.regs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
		}
		for _, p := range fr.params {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
	}
	if t.mm != nil {
		buf = binary.LittleEndian.AppendUint64(buf, t.mm.View.StateHash())
	}
	h := fnv.New64a()
	h.Write(buf)
	return buf, h.Sum64()
}
