package vm

import (
	"math/bits"

	"repro/internal/ir"
	"repro/internal/memmodel"
)

// StateHash returns a hash of the complete execution state: every
// thread's control state, register file and memory view, plus the
// shared-memory contents. The model checker prunes re-visited states,
// which in particular collapses spinloop iterations that observed no
// change (the state after a failed spin retry equals the state before
// it).
//
// The hash is incremental: per-thread component hashes are cached and
// recomputed only for threads marked dirty since the last call (the
// stepping thread, spawn children, barrier releases, join resolution),
// and the memory contribution is maintained per cell as it changes
// (memmodel.Machine.StateAcc, VM.flatAcc). Between two visible steps
// only one or two threads move, so the per-step cost is hashing one
// thread.
func (v *VM) StateHash() uint64 {
	h := uint64(14695981039346656037)
	for i, t := range v.threads {
		if v.threadDirty[i] {
			v.threadHash[i] = v.hashThread(t)
			v.threadDirty[i] = false
		}
		h = h*1099511628211 ^ v.threadHash[i]
	}
	return h*1099511628211 ^ v.stateAcc()
}

// touch marks thread ti's cached component hash stale. Every mutation
// site of thread-visible state must call it: instruction execution,
// spawn (the child), barrier release (each participant), and the join
// resolution in Runnable.
func (v *VM) touch(ti int) { v.threadDirty[ti] = true }

// mixWord folds one 64-bit word into a running hash: a 64x64->128-bit
// multiply folded to 64 bits, so every input bit reaches every output
// bit within two words.
func mixWord(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hashThread hashes one thread's control state, frames and memory view
// word by word: each frame contributes its block's identity word, its
// instruction pointer, registers and parameters.
func (v *VM) hashThread(t *thread) uint64 {
	h := uint64(0x243f6a8885a308d3)
	h = mixWord(h, uint64(t.state))
	h = mixWord(h, uint64(t.barrierN))
	h = mixWord(h, uint64(t.stackNext))
	h = mixWord(h, uint64(len(t.frames)))
	for _, fr := range t.frames {
		if fr.hashBlk != fr.blk {
			fr.hashBlk, fr.hashWord = fr.blk, v.blockWord(fr.blk)
		}
		h = mixWord(h, fr.hashWord)
		h = mixWord(h, uint64(fr.ip))
		for _, r := range fr.regs {
			h = mixWord(h, uint64(r))
		}
		h = mixWord(h, uint64(len(fr.params)))
		for _, p := range fr.params {
			h = mixWord(h, uint64(p))
		}
	}
	if t.mm != nil {
		h = mixWord(h, t.mm.View.StateHash())
	}
	return memmodel.Mix64(h)
}

// blockWord returns the identity word of a block: a hash of its
// function's and its own name, computed once per block per VM. Hashing
// names, not block numbers, keeps the equality classes of the
// name-based hash this one replaced (TestStateHashSplitsLikeOld).
func (v *VM) blockWord(b *ir.Block) uint64 {
	if w, ok := v.blockWords[b]; ok {
		return w
	}
	h := uint64(0x13198a2e03707344)
	h = mixString(h, b.Fn.Name)
	h = mixString(h, b.Name)
	if v.blockWords == nil {
		v.blockWords = make(map[*ir.Block]uint64)
	}
	v.blockWords[b] = h
	return h
}

// mixString folds a string, terminated by its length, into h.
func mixString(h uint64, s string) uint64 {
	for len(s) >= 8 {
		h = mixWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	h = mixWord(h, w)
	return mixWord(h, uint64(len(s))|1<<63)
}
