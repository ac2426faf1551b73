package vm

import (
	"fmt"
	"slices"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/memmodel"
)

// Memory layout (cell addresses).
const (
	globalBase = 0x0000_1000
	heapBase   = 0x1000_0000
	stackBase  = 0x8000_0000
	stackSize  = 0x0010_0000 // per-thread stack region
)

type tstate int

const (
	tRunnable tstate = iota
	tBlockedJoin
	tBlockedBarrier
	tDone
)

type frame struct {
	fn         *ir.Func
	blk        *ir.Block
	ip         int
	regs       []int64
	params     []int64
	callInstr  *ir.Instr // caller instruction awaiting the return value
	savedStack memmodel.Addr
	// hashBlk and hashWord cache the state-hash identity word of the
	// block the frame was in when last hashed (see hash.go).
	hashBlk  *ir.Block
	hashWord uint64
}

type thread struct {
	id        int
	frames    []*frame
	mm        *memmodel.Thread
	cycles    int64
	state     tstate
	barrierN  int64
	stackNext memmodel.Addr
	retVal    int64
	entry     bool
	// lastVisible is the global step count at this thread's most recent
	// visible operation (watchdog progress metric).
	lastVisible int64
	// blockEntries counts block entries when the watchdog is enabled.
	blockEntries map[*ir.Block]int64
	// dirtyShared records whether the thread wrote shared memory since
	// its last fence; dirtyHot additionally records whether one of
	// those writes took a cell over from another thread. Both drive the
	// fence drain cost.
	dirtyShared bool
	dirtyHot    bool
	// stack holds the thread's stack slots by offset from its stack
	// base, up to its high-water mark (see memory.go).
	stack []cellState
}

func (t *thread) frame() *frame { return t.frames[len(t.frames)-1] }

func (t *thread) ownStack(a memmodel.Addr) bool {
	base := memmodel.Addr(stackBase + t.id*stackSize)
	return a >= base && a < base+stackSize
}

type barrierState struct {
	waiting []int
}

// VM is one execution instance.
type VM struct {
	mod     *ir.Module
	opts    Options
	ctrl    Controller
	hook    Hook
	threads []*thread
	// mc is the view machine; nil selects the flat sequentially
	// consistent backend, which keeps every value in cellState.val.
	mc *memmodel.Machine
	// globals maps global names to addresses; globalAddr resolves global
	// operands by pointer, memoizing the name lookup (an operand need not
	// belong to the module, and an unknown name is address 0); funcRefs
	// memoizes the index in mod.Funcs of the function each reference
	// names (-1 when the module has none), so a reference's name is
	// resolved once per VM.
	globals    map[string]memmodel.Addr
	globalAddr map[*ir.Global]memmodel.Addr
	funcRefs   map[*ir.FuncRef]int
	// Cell layout (memory.go): nGlobal dense global cells, then heapCells
	// dense heap cells. initVals holds the globals' initial values up to
	// the last nonzero one; initOver those of global cells past the dense
	// bound; initAcc the flat hash of all of them (flat backend).
	nGlobal   memmodel.Addr
	heapCells memmodel.Addr
	initVals  []int64
	initOver  map[memmodel.Addr]int64
	initAcc   uint64
	// cells is the VM-side state of shared cells; touched lists the cells
	// this execution changed, for Reset; overflow numbers the overflow
	// cells of this execution; flatAcc is the incremental hash of the
	// flat-stored cells.
	cells    memmodel.Cells[cellState]
	touched  []memmodel.Cell
	overflow map[memmodel.Addr]memmodel.Cell
	flatAcc  uint64
	heapNext memmodel.Addr
	res      *Result
	barriers map[int64]*barrierState
	halted   bool
	// runBuf is reused by Runnable to avoid a per-step allocation.
	runBuf []int
	// Incremental state-hash caches (see hash.go): threadHash[i] is the
	// cached component hash of threads[i], recomputed when threadDirty[i];
	// blockWords memoizes each block's identity word.
	threadHash  []uint64
	threadDirty []bool
	blockWords  map[*ir.Block]uint64
	// barrierView is the scratch view a barrier release joins into.
	barrierView memmodel.Thread
	// Free lists for Reset-based VM reuse: finished frames, thread shells
	// and memmodel views are recycled instead of reallocated, which is
	// what makes one VM cheap to drive across millions of model-checker
	// executions.
	framePool  []*frame
	threadPool []*thread
	mmPool     []*memmodel.Thread
}

// chargeWrite applies the write cost including the contention surcharge
// for atomic writes to cells last written by another thread, and
// invalidates the cell's shared state. own reports a write to the
// thread's own stack.
func (v *VM) chargeWrite(t *thread, cs *cellState, own, atomic bool, base int64) {
	t.cycles += base
	written := cs.writer != 0
	foreign := written && int(cs.writer-1) != t.id
	if atomic && foreign {
		t.cycles += v.opts.Costs.Contended
	}
	if !own {
		t.dirtyShared = true
		if foreign {
			t.dirtyHot = true
		}
	}
	if written {
		cs.multi = true
	}
	cs.writer = int32(t.id + 1)
	cs.shared = 0
}

// chargeLoad applies the load cost plus the invalidation surcharge:
// the first read of an actively mutated cell whose last writer was
// another thread refetches the line. Atomic loads pay the full fill
// (LDAR stalls the pipeline); plain loads pay the residue out-of-order
// execution cannot hide.
func (v *VM) chargeLoad(t *thread, cs *cellState, base int64, atomic bool) {
	t.cycles += base
	if cs.writer == 0 || int(cs.writer-1) == t.id || !cs.multi {
		return
	}
	bit := uint32(1) << uint(t.id%32)
	if cs.shared&bit == 0 {
		if atomic {
			t.cycles += v.opts.Costs.ContendedLoad
		} else {
			t.cycles += v.opts.Costs.ContendedPlain
		}
		cs.shared |= bit
	}
}

// New prepares an execution of the module's entry threads. Any model
// but SC runs on the view machine, which exhibits weak behaviors; ModelSC
// runs on the flat backend, whose cycle counts are the same and whose
// histories never grow. Internal panics (e.g. global layout over
// malformed types) are contained and returned as structured errors.
func New(m *ir.Module, opts Options) (v *VM, err error) {
	defer diag.Guard("vm.New", &err)
	if len(opts.Entries) == 0 {
		return nil, fmt.Errorf("vm: no entry functions")
	}
	opts.Model = opts.Model.Or(memmodel.ModelSC)
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.Costs == (Costs{}) {
		opts.Costs = DefaultCosts()
	}
	ctrl := opts.Controller
	if ctrl == nil {
		ctrl = NewRandomController(opts.Seed)
	}
	v = &VM{
		mod:        m,
		opts:       opts,
		ctrl:       ctrl,
		hook:       opts.Hook,
		globals:    make(map[string]memmodel.Addr, len(m.Globals)),
		globalAddr: make(map[*ir.Global]memmodel.Addr, len(m.Globals)),
		heapNext:   heapBase,
		res:        &Result{},
		barriers:   make(map[int64]*barrierState),
	}
	if opts.Profile {
		v.res.FuncCycles = make(map[string]int64)
	}
	if opts.Model != memmodel.ModelSC {
		v.mc = memmodel.NewMachine(opts.Model, ctrl) // the controller picks weak reads
	}
	v.layoutGlobals()
	if err := v.start(); err != nil {
		return nil, err
	}
	return v, nil
}

// layoutGlobals lays out the globals and computes their initial values
// once; the addresses and values are a function of the module only and
// stay valid across Reset.
func (v *VM) layoutGlobals() {
	next := memmodel.Addr(globalBase)
	for _, g := range v.mod.Globals {
		v.globals[g.GName] = next
		next += memmodel.Addr(g.Elem.Cells())
	}
	v.nGlobal = min(next-globalBase, maxDenseCells)
	for _, g := range v.mod.Globals {
		v.globalAddr[g] = v.globals[g.GName]
	}
	for _, g := range v.mod.Globals {
		base := v.globals[g.GName]
		for i, val := range g.Init {
			if val == 0 {
				continue
			}
			a := base + memmodel.Addr(i)
			off := a - globalBase
			if off >= v.nGlobal {
				if v.initOver == nil {
					v.initOver = make(map[memmodel.Addr]int64)
				}
				v.initOver[a] = val
				continue
			}
			if int(off) >= len(v.initVals) {
				v.initVals = append(v.initVals, make([]int64, int(off)+1-len(v.initVals))...)
			}
			v.initVals[off] = val
		}
	}
	if v.mc != nil {
		v.mc.SetInits(v.initVals)
		return
	}
	for c, val := range v.initVals {
		if val != 0 {
			v.cells.At(memmodel.Cell(c)).val = val
			v.initAcc ^= cellHash(globalBase+memmodel.Addr(c), val)
		}
	}
	for a, val := range v.initOver {
		v.initAcc ^= cellHash(a, val)
	}
	v.flatAcc = v.initAcc
}

// start creates the entry threads. Shared by New and Reset.
func (v *VM) start() error {
	for _, name := range v.opts.Entries {
		fn := v.mod.Func(name)
		if fn == nil {
			return fmt.Errorf("vm: entry function @%s not found", name)
		}
		if len(fn.Params) != 0 {
			return fmt.Errorf("vm: entry function @%s must take no parameters", name)
		}
		t := v.newThread(fn, v.allocMM())
		t.entry = true
	}
	return nil
}

// Reset restores the VM to its pristine pre-execution state — as if
// freshly built by New with the same module and options — while keeping
// every allocation: cell tables, thread shells, frames and memmodel
// views are recycled, and only the cells the execution touched are
// cleared. The model checker drives one VM per worker through millions
// of executions this way instead of paying an allocation storm per
// replay.
func (v *VM) Reset() (err error) {
	defer diag.Guard("vm.Reset", &err)
	for _, t := range v.threads {
		v.recycleThread(t)
	}
	v.threads = v.threads[:0]
	v.threadHash = v.threadHash[:0]
	v.threadDirty = v.threadDirty[:0]
	v.res = &Result{}
	if v.opts.Profile {
		v.res.FuncCycles = make(map[string]int64)
	}
	v.halted = false
	v.heapNext = heapBase
	v.heapCells = 0
	clear(v.barriers)
	v.resetMemory()
	return v.start()
}

// allocMM returns an empty memmodel thread view, recycled when the free
// list has one.
func (v *VM) allocMM() *memmodel.Thread {
	if n := len(v.mmPool); n > 0 {
		mm := v.mmPool[n-1]
		v.mmPool = v.mmPool[:n-1]
		mm.Reset()
		return mm
	}
	return memmodel.NewThread()
}

// recycleThread returns a thread's frames, view and shell to the free
// lists.
func (v *VM) recycleThread(t *thread) {
	clear(t.stack)
	t.stack = t.stack[:0]
	v.framePool = append(v.framePool, t.frames...)
	if t.mm != nil {
		v.mmPool = append(v.mmPool, t.mm)
		t.mm = nil
	}
	v.threadPool = append(v.threadPool, t)
}

// newFrame returns a frame ready to enter fn, recycling a finished
// frame when possible. Registers are zeroed to match a fresh
// allocation; params start empty for the caller to fill.
func (v *VM) newFrame(fn *ir.Func, callInstr *ir.Instr, savedStack memmodel.Addr) *frame {
	var f *frame
	if n := len(v.framePool); n > 0 {
		f = v.framePool[n-1]
		v.framePool = v.framePool[:n-1]
	} else {
		f = &frame{}
	}
	n := fn.NumIDs()
	if cap(f.regs) < n {
		f.regs = make([]int64, n)
	} else {
		f.regs = f.regs[:n]
		clear(f.regs)
	}
	f.fn = fn
	f.blk = fn.Entry()
	f.ip = 0
	f.params = f.params[:0]
	f.callInstr = callInstr
	f.savedStack = savedStack
	return f
}

func (v *VM) newThread(fn *ir.Func, mm *memmodel.Thread) *thread {
	id := len(v.threads)
	var t *thread
	if n := len(v.threadPool); n > 0 {
		t = v.threadPool[n-1]
		v.threadPool = v.threadPool[:n-1]
		frames, stack := t.frames[:0], t.stack[:0]
		*t = thread{frames: frames, stack: stack}
	} else {
		t = &thread{}
	}
	t.id = id
	t.mm = mm
	t.stackNext = memmodel.Addr(stackBase + id*stackSize)
	t.frames = append(t.frames, v.newFrame(fn, nil, 0))
	if v.opts.Watchdog {
		t.blockEntries = map[*ir.Block]int64{fn.Entry(): 1}
	}
	v.threads = append(v.threads, t)
	v.threadHash = append(v.threadHash, 0)
	v.threadDirty = append(v.threadDirty, true)
	return t
}

// Runnable returns the indices of threads that can take a step,
// resolving join/barrier unblocking. The returned slice is valid until
// the next Runnable call.
func (v *VM) Runnable() []int {
	run := v.runBuf[:0]
	allDoneExcept := func(self int) bool {
		for _, o := range v.threads {
			if o.id != self && o.state != tDone {
				return false
			}
		}
		return true
	}
	for _, t := range v.threads {
		switch t.state {
		case tRunnable:
			run = append(run, t.id)
		case tBlockedJoin:
			if allDoneExcept(t.id) {
				// Synchronize with every finished thread and resume.
				for _, o := range v.threads {
					if o.id != t.id {
						t.mm.JoinThread(o.mm)
						if v.hook != nil {
							v.hook.OnJoin(t.id, o.id)
						}
					}
				}
				t.state = tRunnable
				v.touch(t.id)
				run = append(run, t.id)
			}
		case tBlockedBarrier:
			// Barrier release happens when the last participant arrives
			// (in the barrier builtin); blocked threads stay blocked here.
		}
	}
	v.runBuf = run
	return run
}

// Done reports whether all threads finished.
func (v *VM) Done() bool {
	for _, t := range v.threads {
		if t.state != tDone {
			return false
		}
	}
	return true
}

// Run drives the execution to completion. Internal panics are contained
// by the diag guard and returned as structured errors.
func (v *VM) Run() (res *Result, err error) {
	defer diag.Guard("vm.Run", &err)
	for v.res.Steps < v.opts.MaxSteps {
		if v.halted {
			break
		}
		run := v.Runnable()
		if len(run) == 0 {
			if v.Done() {
				break
			}
			v.res.Status = StatusDeadlock
			v.finish()
			return v.res, nil
		}
		ti := v.ctrl.PickThread(run)
		if _, err := v.exec(v.threads[ti]); err != nil {
			return nil, err
		}
	}
	if !v.halted && v.res.Steps >= v.opts.MaxSteps {
		v.res.Status = StatusStepLimit
	}
	v.finish()
	return v.res, nil
}

func (v *VM) finish() {
	if v.opts.Watchdog && v.res.Status == StatusStepLimit {
		v.res.Livelock = v.diagnoseLivelock()
	}
	for _, t := range v.threads {
		v.res.ThreadCycles = append(v.res.ThreadCycles, t.cycles)
		if t.cycles > v.res.MaxCycles {
			v.res.MaxCycles = t.cycles
		}
		v.res.TotalCycles += t.cycles
		if t.entry {
			v.res.Returns = append(v.res.Returns, t.retVal)
		}
	}
	if p := v.opts.Obs; p != nil {
		p.Counter("vm.executions_completed").Inc()
		p.Counter("vm.steps_executed").Add(v.res.Steps)
		p.Histogram("vm.execution_steps").Observe(v.res.Steps)
	}
}

// StepThread executes instructions of thread index ti until a visible
// operation has executed (or the thread blocks/finishes). Used by the
// model checker to reduce scheduling choice points to visible operations.
// Internal panics are contained and returned as structured errors.
func (v *VM) StepThread(ti int) (err error) {
	defer diag.Guard("vm.StepThread", &err)
	t := v.threads[ti]
	for t.state == tRunnable && !v.halted {
		visible, err := v.exec(t)
		if err != nil {
			return err
		}
		if visible {
			return nil
		}
		if v.res.Steps >= v.opts.MaxSteps {
			v.res.Status = StatusStepLimit
			v.halted = true
		}
	}
	return nil
}

// Result returns the (possibly still accumulating) result.
func (v *VM) Result() *Result { return v.res }

// Halted reports whether execution stopped (assertion failure or step
// limit).
func (v *VM) Halted() bool { return v.halted }

// funcRef returns the index in mod.Funcs of the function r names, or -1
// when the module has none.
func (v *VM) funcRef(r *ir.FuncRef) int {
	i, ok := v.funcRefs[r]
	if !ok {
		i = slices.IndexFunc(v.mod.Funcs, func(f *ir.Func) bool { return f.Name == r.Name })
		if v.funcRefs == nil {
			v.funcRefs = make(map[*ir.FuncRef]int)
		}
		v.funcRefs[r] = i
	}
	return i
}

func (v *VM) eval(t *thread, val ir.Value) int64 {
	switch x := val.(type) {
	case *ir.ConstInt:
		return x.V
	case *ir.Global:
		a, ok := v.globalAddr[x]
		if !ok {
			a = v.globals[x.GName]
			v.globalAddr[x] = a
		}
		return int64(a)
	case *ir.Param:
		return t.frame().params[x.Index]
	case *ir.Instr:
		return t.frame().regs[x.ID]
	case *ir.FuncRef:
		if i := v.funcRef(x); i >= 0 {
			return int64(i)
		}
	}
	// Unreachable on verified modules; the position makes watchdog and
	// fuzzer reports actionable when an unverified module slips in. The
	// panic is contained by the diag guard at the public entry points.
	f := t.frame()
	ip := f.ip - 1 // exec has already advanced past the current instruction
	pos := fmt.Sprintf("@%s %%%s", f.fn.Name, f.blk.Name)
	if ip >= 0 && ip < len(f.blk.Instrs) {
		pos = fmt.Sprintf("%s #%d: %s", pos, ip, f.blk.Instrs[ip])
	}
	panic(fmt.Sprintf("vm: cannot evaluate %T (thread %d, %s)", val, t.id, pos))
}

// exec runs one instruction; it reports whether the instruction was
// visible (touches shared memory or synchronizes threads). When
// tracing is enabled, visible operations are appended to the result's
// trace (used by the model checker to print counterexamples).
func (v *VM) exec(t *thread) (bool, error) {
	v.touch(t.id) // every instruction mutates the thread's hashed state
	var cur *ir.Instr
	if f := t.frame(); f.ip < len(f.blk.Instrs) {
		cur = f.blk.Instrs[f.ip]
	}
	var before int64
	if v.opts.Profile {
		before = t.cycles
	}
	visible, err := v.execInstr(t)
	if visible {
		t.lastVisible = v.res.Steps
	}
	if v.opts.Profile && cur != nil {
		v.res.FuncCycles[cur.Blk.Fn.Name] += t.cycles - before
	}
	if visible && v.opts.TraceVisible && cur != nil && len(v.res.Trace) < maxTraceEvents {
		v.res.Trace = append(v.res.Trace, TraceEvent{
			Thread: t.id,
			Fn:     cur.Blk.Fn.Name,
			Instr:  cur.String(),
		})
	}
	return visible, err
}

// maxTraceEvents bounds counterexample traces.
const maxTraceEvents = 4096

func (v *VM) execInstr(t *thread) (bool, error) {
	f := t.frame()
	if f.ip >= len(f.blk.Instrs) {
		return false, fmt.Errorf("vm: fell off block %%%s in @%s", f.blk.Name, f.fn.Name)
	}
	in := f.blk.Instrs[f.ip]
	f.ip++
	v.res.Steps++
	c := &v.opts.Costs
	switch in.Op {
	case ir.OpAlloca:
		cells := in.AllocElem.Cells()
		addr := t.stackNext
		t.stackNext += memmodel.Addr(cells)
		if t.stackNext > memmodel.Addr(stackBase+t.id*stackSize+stackSize) {
			return false, fmt.Errorf("vm: stack overflow in @%s", f.fn.Name)
		}
		for i := 0; i < cells; i++ {
			a := addr + memmodel.Addr(i)
			v.setFlat(a, v.stackCell(a, true), 0)
		}
		f.regs[in.ID] = int64(addr)
		t.cycles += c.Arith
		return false, nil

	case ir.OpLoad:
		a := memmodel.Addr(v.eval(t, in.Args[0]))
		cell, cs, shared := v.resolve(a)
		val, rts := v.load(t, cell, cs, a, shared, in.Ord)
		f.regs[in.ID] = val
		v.chargeLoad(t, cs, c.accessCost(in.Ord, false), in.Ord.Atomic() && in.Ord != ir.Relaxed)
		if in.Ord.Atomic() {
			v.res.Counters.AtomicLoads++
		} else {
			v.res.Counters.NonAtomicLoads++
		}
		if v.hook != nil && shared {
			v.hookAccess(t, a, cell, AccessLoad, in, rts, -1)
		}
		return !t.ownStack(a), nil

	case ir.OpStore:
		a := memmodel.Addr(v.eval(t, in.Args[0]))
		val := v.eval(t, in.Args[1])
		cell, cs, shared := v.resolve(a)
		wts := v.store(t, cell, cs, a, shared, val, in.Ord)
		v.chargeWrite(t, cs, t.ownStack(a), in.Ord.Atomic(), c.accessCost(in.Ord, true))
		if in.Ord.Atomic() {
			v.res.Counters.AtomicStores++
		} else {
			v.res.Counters.NonAtomicStores++
		}
		if v.hook != nil && shared {
			v.hookAccess(t, a, cell, AccessStore, in, -1, wts)
		}
		return !t.ownStack(a), nil

	case ir.OpCmpXchg:
		a := memmodel.Addr(v.eval(t, in.Args[0]))
		exp := v.eval(t, in.Args[1])
		nv := v.eval(t, in.Args[2])
		cell, cs, shared := v.resolve(a)
		old, swapped, rts, wts := v.cmpxchg(t, cell, cs, a, shared, exp, nv, in.Ord)
		f.regs[in.ID] = old
		v.chargeWrite(t, cs, t.ownStack(a), true, c.RMW)
		v.res.Counters.RMWs++
		if v.hook != nil && shared {
			kind := AccessRMW
			if !swapped {
				kind = AccessCasFail
			}
			v.hookAccess(t, a, cell, kind, in, rts, wts)
		}
		return true, nil

	case ir.OpRMW:
		a := memmodel.Addr(v.eval(t, in.Args[0]))
		operand := v.eval(t, in.Args[1])
		cell, cs, shared := v.resolve(a)
		old, rts, wts := v.rmw(t, cell, cs, a, shared, rmwFunc(in.RMW, operand), in.Ord)
		f.regs[in.ID] = old
		v.chargeWrite(t, cs, t.ownStack(a), true, c.RMW)
		v.res.Counters.RMWs++
		if v.hook != nil && shared {
			v.hookAccess(t, a, cell, AccessRMW, in, rts, wts)
		}
		return true, nil

	case ir.OpFence:
		if v.mc != nil {
			v.mc.Fence(t.mm, int(in.Ord))
		}
		if v.hook != nil {
			v.hook.OnFence(t.id, in.Ord)
		}
		if in.Ord == ir.SeqCst {
			t.cycles += c.FenceSC
		} else {
			t.cycles += c.FenceWeak
		}
		if t.dirtyShared {
			t.cycles += c.FenceDrain
			t.dirtyShared = false
		}
		if t.dirtyHot {
			t.cycles += c.FenceDrainHot
			t.dirtyHot = false
		}
		v.res.Counters.Fences++
		return true, nil

	case ir.OpBin:
		x, y := v.eval(t, in.Args[0]), v.eval(t, in.Args[1])
		r, err := binOp(in.BinKind, x, y)
		if err != nil {
			return false, fmt.Errorf("vm: @%s: %w", f.fn.Name, err)
		}
		f.regs[in.ID] = r
		t.cycles += c.Arith
		return false, nil

	case ir.OpICmp:
		x, y := v.eval(t, in.Args[0]), v.eval(t, in.Args[1])
		f.regs[in.ID] = icmp(in.Pred, x, y)
		t.cycles += c.Arith
		return false, nil

	case ir.OpGEP:
		f.regs[in.ID] = v.gepAddr(t, in)
		t.cycles += c.Arith
		return false, nil

	case ir.OpCall:
		return v.call(t, in)

	case ir.OpBr:
		t.cycles += c.Arith
		target := in.Then
		if in.Else != nil && v.eval(t, in.Args[0]) == 0 {
			target = in.Else
		}
		f.blk = target
		f.ip = 0
		if t.blockEntries != nil {
			t.blockEntries[target]++
		}
		return false, nil

	case ir.OpRet:
		var rv int64
		if len(in.Args) == 1 {
			rv = v.eval(t, in.Args[0])
		}
		t.cycles += c.Call
		return v.doReturn(t, rv), nil
	}
	return false, fmt.Errorf("vm: unhandled op %s", in.Op)
}

func (v *VM) doReturn(t *thread, rv int64) bool {
	f := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		t.retVal = rv
		t.state = tDone
		v.framePool = append(v.framePool, f)
		return true // thread completion is visible (join/deadlock logic)
	}
	// Stack space is reused across calls; stack addresses live in flat
	// storage in both memory modes (view mode routes them to a flat side
	// store), so no stale message history can leak between frames.
	t.stackNext = f.savedStack
	caller := t.frame()
	if f.callInstr != nil {
		caller.regs[f.callInstr.ID] = rv
	}
	v.framePool = append(v.framePool, f)
	return false
}

func (v *VM) gepAddr(t *thread, in *ir.Instr) int64 {
	base := v.eval(t, in.Args[0])
	off := int64(0)
	ty := in.GEPBase
	dyn := 1
	for _, st := range in.Path {
		if st.Field >= 0 {
			s := ty.(*ir.StructType)
			off += int64(s.FieldOffset(st.Field))
			ty = s.Fields[st.Field].Type
			continue
		}
		idx := v.eval(t, in.Args[dyn])
		dyn++
		if at, ok := ty.(*ir.ArrayType); ok {
			off += idx * int64(at.Elem.Cells())
			ty = at.Elem
		} else {
			off += idx * int64(ty.Cells())
		}
	}
	return base + off
}

func binOp(k ir.BinKind, x, y int64) (int64, error) {
	switch k {
	case ir.Add:
		return x + y, nil
	case ir.Sub:
		return x - y, nil
	case ir.Mul:
		return x * y, nil
	case ir.Div:
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x / y, nil
	case ir.Rem:
		if y == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return x % y, nil
	case ir.And:
		return x & y, nil
	case ir.Or:
		return x | y, nil
	case ir.Xor:
		return x ^ y, nil
	case ir.Shl:
		return x << uint(y&63), nil
	case ir.Shr:
		return x >> uint(y&63), nil
	}
	return 0, fmt.Errorf("unknown binary op %d", k)
}

func icmp(p ir.Pred, x, y int64) int64 {
	var b bool
	switch p {
	case ir.EQ:
		b = x == y
	case ir.NE:
		b = x != y
	case ir.LT:
		b = x < y
	case ir.LE:
		b = x <= y
	case ir.GT:
		b = x > y
	case ir.GE:
		b = x >= y
	}
	if b {
		return 1
	}
	return 0
}

func rmwFunc(k ir.RMWKind, operand int64) func(int64) int64 {
	switch k {
	case ir.RMWAdd:
		return func(v int64) int64 { return v + operand }
	case ir.RMWSub:
		return func(v int64) int64 { return v - operand }
	case ir.RMWAnd:
		return func(v int64) int64 { return v & operand }
	case ir.RMWOr:
		return func(v int64) int64 { return v | operand }
	case ir.RMWXor:
		return func(v int64) int64 { return v ^ operand }
	default: // RMWXchg
		return func(int64) int64 { return operand }
	}
}

// Snapshot returns the final value of every global, cell by cell — the
// schedule-independent part of a terminated execution's state. The
// differential harness compares snapshots across memory models and
// scheduler modes.
func (v *VM) Snapshot() map[string][]int64 {
	out := make(map[string][]int64, len(v.mod.Globals))
	for _, g := range v.mod.Globals {
		base := v.globals[g.GName]
		cells := make([]int64, g.Elem.Cells())
		for i := range cells {
			cells[i] = v.final(base + memmodel.Addr(i))
		}
		out[g.GName] = cells
	}
	return out
}
