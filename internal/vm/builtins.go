package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/memmodel"
)

// call dispatches OpCall instructions: user functions push a frame,
// builtins execute inline. It reports visibility.
func (v *VM) call(t *thread, in *ir.Instr) (bool, error) {
	c := &v.opts.Costs
	if fn := v.mod.Func(in.Callee); fn != nil {
		// Arguments evaluate in the caller's frame (still t.frame() until
		// the push below).
		nf := v.newFrame(fn, in, t.stackNext)
		for _, a := range in.Args {
			nf.params = append(nf.params, v.eval(t, a))
		}
		t.frames = append(t.frames, nf)
		t.cycles += c.Call
		return false, nil
	}
	switch in.Callee {
	case "assert":
		val := v.eval(t, in.Args[0])
		t.cycles += c.Arith
		if val == 0 {
			v.res.Status = StatusAssertFailed
			v.res.FailMsg = fmt.Sprintf("assertion failed in @%s (thread %d)", t.frame().fn.Name, t.id)
			v.halted = true
		}
		return true, nil

	case "spawn":
		fr, ok := in.Args[0].(*ir.FuncRef)
		if !ok {
			return false, fmt.Errorf("vm: spawn argument is not a function reference")
		}
		fi := v.funcRef(fr)
		if fi < 0 {
			return false, fmt.Errorf("vm: spawn of unknown function @%s", fr.Name)
		}
		// Fork the parent's view into a recycled memmodel thread: joining
		// into an empty view equals cloning (zero timestamps are absent in
		// both representations).
		mm := v.allocMM()
		mm.JoinThread(t.mm)
		child := v.newThread(v.mod.Funcs[fi], mm)
		if v.hook != nil {
			v.hook.OnSpawn(t.id, child.id)
		}
		t.cycles += c.Call
		return true, nil

	case "join":
		t.cycles += c.Call
		// Re-check in Runnable; if everything else already finished,
		// complete immediately.
		t.state = tBlockedJoin
		done := true
		for _, o := range v.threads {
			if o.id != t.id && o.state != tDone {
				done = false
				break
			}
		}
		if done {
			for _, o := range v.threads {
				if o.id != t.id {
					t.mm.JoinThread(o.mm)
					if v.hook != nil {
						v.hook.OnJoin(t.id, o.id)
					}
				}
			}
			t.state = tRunnable
		}
		return true, nil

	case "barrier":
		n := v.eval(t, in.Args[0])
		t.cycles += c.RMW
		if n <= 1 {
			return true, nil
		}
		bs := v.barriers[n]
		if bs == nil {
			bs = &barrierState{}
			v.barriers[n] = bs
		}
		bs.waiting = append(bs.waiting, t.id)
		if int64(len(bs.waiting)) < n {
			t.state = tBlockedBarrier
			t.barrierN = n
			return true, nil
		}
		// Last arrival: synchronize all participants and release.
		joined := &v.barrierView
		joined.Reset()
		for _, id := range bs.waiting {
			joined.JoinThread(v.threads[id].mm)
		}
		for _, id := range bs.waiting {
			p := v.threads[id]
			p.mm.JoinThread(joined)
			p.state = tRunnable
			v.touch(id)
		}
		if v.hook != nil {
			v.hook.OnBarrier(bs.waiting)
		}
		delete(v.barriers, n)
		return true, nil

	case "tid":
		t.frame().regs[in.ID] = int64(t.id)
		t.cycles += c.Arith
		return false, nil

	case "nondet":
		t.frame().regs[in.ID] = int64(v.ctrl.PickNondet(2))
		t.cycles += c.Arith
		return true, nil

	case "malloc":
		size := v.eval(t, in.Args[0])
		if size < 0 {
			return false, fmt.Errorf("vm: malloc of negative size")
		}
		addr := v.heapNext
		v.heapNext += memmodel.Addr(size)
		// The dense heap only grows within an execution, so no cell changes
		// its number when heapNext wraps.
		v.heapCells = max(v.heapCells, min(v.heapNext-heapBase, maxDenseCells-v.nGlobal))
		t.frame().regs[in.ID] = int64(addr)
		t.cycles += c.Call
		return false, nil

	case "free", "yield", "pause", "asm", "compiler_barrier":
		t.cycles += c.Arith
		return false, nil

	case "print":
		for _, a := range in.Args {
			v.res.Output = append(v.res.Output, v.eval(t, a))
		}
		t.cycles += c.Arith
		return false, nil
	}
	return false, fmt.Errorf("vm: call to unknown builtin @%s", in.Callee)
}
