package minic

import (
	"fmt"
	"strconv"

	"repro/internal/ir"
	"repro/internal/obs"
)

// Stats reports frontend counters the atomig pipeline includes in its
// porting report.
type Stats struct {
	// SourceLines is the number of non-blank source lines compiled.
	SourceLines int
	// VolatileDecls counts volatile-qualified globals and fields.
	VolatileDecls int
	// AtomicDecls counts _Atomic-qualified globals and fields.
	AtomicDecls int
	// AsmMapped counts inline-asm fragments replaced by builtins.
	AsmMapped int
	// AsmOpaque counts inline-asm fragments left as opaque calls.
	AsmOpaque int
	// Functions and Instrs describe the produced module.
	Functions int
	Instrs    int
}

// countSourceLines counts non-blank source lines in one pass, without
// materializing a per-line slice (the old strings.Split allocated a
// 100k-entry slice on million-line inputs).
func countSourceLines(src string) int {
	n := 0
	blank := true
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\n':
			if !blank {
				n++
			}
			blank = true
		case ' ', '\t', '\r', '\v', '\f':
			// whitespace keeps the line blank
		default:
			blank = false
		}
	}
	if !blank {
		n++
	}
	return n
}

type compiler struct {
	mod     *ir.Module
	structs map[string]*ir.StructType
	stats   Stats
	// workers and obs come from Options (compile.go): the per-function
	// lowering fan-out and the frontend.* instrumentation seam.
	workers int
	obs     *obs.Provider
}

func (c *compiler) compileFile(f *File) error {
	// Register struct shells so self- and mutual references resolve.
	for _, sd := range f.Structs {
		if _, dup := c.structs[sd.Name]; dup {
			return fmt.Errorf("line %d: duplicate struct %q", sd.Line, sd.Name)
		}
		st := &ir.StructType{TypeName: sd.Name}
		c.structs[sd.Name] = st
		if err := c.mod.AddStruct(st); err != nil {
			return err
		}
	}
	for _, sd := range f.Structs {
		st := c.structs[sd.Name]
		for _, fd := range sd.Fields {
			ft, err := c.resolveType(fd.Type)
			if err != nil {
				return fmt.Errorf("struct %s field %s: %w", sd.Name, fd.Name, err)
			}
			if fd.Volatile {
				c.stats.VolatileDecls++
			}
			if fd.Atomic {
				c.stats.AtomicDecls++
			}
			st.Fields = append(st.Fields, ir.Field{
				Name: fd.Name, Type: ft, Volatile: fd.Volatile, Atomic: fd.Atomic,
			})
		}
	}
	for _, vd := range f.Globals {
		if err := c.compileGlobal(vd); err != nil {
			return err
		}
	}
	// Register function shells for forward references. Prototypes
	// (nil bodies) must agree with the definition; the definition wins.
	defined := make(map[string]*FuncDecl)
	var order []*FuncDecl
	for _, fd := range f.Funcs {
		prev, seen := defined[fd.Name]
		switch {
		case !seen:
			defined[fd.Name] = fd
			order = append(order, fd)
		case prev.Body == nil && fd.Body != nil:
			if len(prev.Params) != len(fd.Params) {
				return fmt.Errorf("line %d: definition of %s disagrees with its prototype", fd.Line, fd.Name)
			}
			*prev = *fd // replace the prototype in place
		case prev.Body != nil && fd.Body == nil:
			if len(prev.Params) != len(fd.Params) {
				return fmt.Errorf("line %d: prototype of %s disagrees with its definition", fd.Line, fd.Name)
			}
		default:
			return fmt.Errorf("line %d: duplicate function %s", fd.Line, fd.Name)
		}
	}
	f.Funcs = order
	for _, fd := range f.Funcs {
		if fd.Body == nil {
			return fmt.Errorf("line %d: function %s declared but never defined", fd.Line, fd.Name)
		}
		ret, err := c.resolveType(fd.Ret)
		if err != nil {
			return fmt.Errorf("line %d: function %s: %w", fd.Line, fd.Name, err)
		}
		fn := &ir.Func{Name: fd.Name, RetTy: ret}
		for i, pd := range fd.Params {
			pt, err := c.resolveType(pd.Type)
			if err != nil {
				return fmt.Errorf("function %s param %s: %w", fd.Name, pd.Name, err)
			}
			fn.Params = append(fn.Params, &ir.Param{PName: pd.Name, Ty: pt, Index: i})
		}
		if err := c.mod.AddFunc(fn); err != nil {
			return fmt.Errorf("line %d: %w", fd.Line, err)
		}
	}
	// Every function shell is registered and the struct/global tables
	// are complete, so function bodies read only shared-immutable state
	// and write only their own ir.Func: lowering fans out (compile.go).
	return c.compileFuncs(f.Funcs)
}

// resolveType converts a syntactic type to an AIR type. Array dimensions
// nest outermost-first: int a[2][3] is [2 x [3 x i64]].
func (c *compiler) resolveType(t TypeExpr) (ir.Type, error) {
	var base ir.Type
	switch {
	case t.Base == "int":
		base = ir.I64
	case t.Base == "void":
		base = ir.Void
	case t.StructName != "":
		st, ok := c.structs[t.StructName]
		if !ok {
			return nil, fmt.Errorf("unknown struct %q", t.StructName)
		}
		base = st
	default:
		return nil, fmt.Errorf("unsupported type")
	}
	for i := 0; i < t.Stars; i++ {
		base = ir.PointerTo(base)
	}
	for i := len(t.ArrayLens) - 1; i >= 0; i-- {
		base = &ir.ArrayType{Elem: base, Len: t.ArrayLens[i]}
	}
	if _, isVoid := base.(*ir.VoidType); isVoid && t.Stars == 0 && len(t.ArrayLens) > 0 {
		return nil, fmt.Errorf("array of void")
	}
	return base, nil
}

func (c *compiler) compileGlobal(vd *VarDecl) error {
	ty, err := c.resolveType(vd.Type)
	if err != nil {
		return fmt.Errorf("line %d: global %s: %w", vd.Line, vd.Name, err)
	}
	if vd.Type.IsVoid() {
		return fmt.Errorf("line %d: global %s has type void", vd.Line, vd.Name)
	}
	g := &ir.Global{GName: vd.Name, Elem: ty, Volatile: vd.Volatile, Atomic: vd.Atomic}
	if vd.Volatile {
		c.stats.VolatileDecls++
	}
	if vd.Atomic {
		c.stats.AtomicDecls++
	}
	switch {
	case vd.Init != nil:
		v, err := constEval(vd.Init)
		if err != nil {
			return fmt.Errorf("line %d: global %s: %w", vd.Line, vd.Name, err)
		}
		g.Init = []int64{v}
	case vd.InitList != nil:
		for _, e := range vd.InitList {
			v, err := constEval(e)
			if err != nil {
				return fmt.Errorf("line %d: global %s: %w", vd.Line, vd.Name, err)
			}
			g.Init = append(g.Init, v)
		}
		if len(g.Init) > ty.Cells() {
			return fmt.Errorf("line %d: global %s: too many initializers", vd.Line, vd.Name)
		}
	}
	return c.mod.AddGlobal(g)
}

// constEval evaluates compile-time constant expressions for global
// initializers.
func constEval(e Expr) (int64, error) {
	switch x := e.(type) {
	case *NumLit:
		return x.Val, nil
	case *Unary:
		v, err := constEval(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case "~":
			return ^v, nil
		}
	case *Binary:
		a, err := constEval(x.X)
		if err != nil {
			return 0, err
		}
		b, err := constEval(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("constant division by zero")
			}
			return a / b, nil
		case "<<":
			return a << uint(b), nil
		case ">>":
			return a >> uint(b), nil
		case "|":
			return a | b, nil
		case "&":
			return a & b, nil
		}
	}
	return 0, fmt.Errorf("initializer is not a constant expression")
}

// place is an addressable location with its element type and access
// qualifiers.
type place struct {
	addr     ir.Value
	elem     ir.Type
	volatile bool
	atomic   bool
}

type loopCtx struct {
	continueTo *ir.Block
	breakTo    *ir.Block
}

// lowerScratch is per-worker reusable state: scope maps and the block
// name buffer survive across the functions one worker lowers, so the
// steady-state cost of a function body is its instructions, not a
// fresh map per lexical scope. Never shared between goroutines.
type lowerScratch struct {
	scopes  []map[string]place
	nameBuf []byte
}

type funcLowerer struct {
	c       *compiler
	fn      *ir.Func
	b       *ir.Builder
	scratch *lowerScratch
	// depth is the live prefix of scratch.scopes: maps above it are
	// retained (cleared on reuse) rather than reallocated.
	depth    int
	loops    []loopCtx
	blkSeq   int
	nAllocas int
	// stats lands in this function's funcOut slot; the sequential merge
	// (compile.go) applies it in module order.
	stats *Stats
}

// alloca creates a stack slot in the function's entry block (clang -O0
// layout). Hoisting allocas out of loops keeps a loop iteration from
// consuming fresh stack space, which matters both for C semantics (the
// slot is the same across iterations) and for the model checker's
// state-equality pruning.
func (fl *funcLowerer) alloca(ty ir.Type) *ir.Instr {
	entry := fl.fn.Entry()
	in := &ir.Instr{
		Op: ir.OpAlloca, ID: fl.fn.NextID(), Blk: entry,
		Ty: ir.PointerTo(ty), AllocElem: ty,
	}
	entry.Instrs = append(entry.Instrs, nil)
	copy(entry.Instrs[fl.nAllocas+1:], entry.Instrs[fl.nAllocas:])
	entry.Instrs[fl.nAllocas] = in
	fl.nAllocas++
	return in
}

// compileFunc lowers one function body into out. It touches only the
// function's own ir.Func, the read-only module tables, and its private
// scratch, so distinct functions lower concurrently (compile.go).
func (c *compiler) compileFunc(fd *FuncDecl, scratch *lowerScratch, out *funcOut) {
	fn := c.mod.Func(fd.Name)
	fl := &funcLowerer{c: c, fn: fn, b: ir.NewBuilder(fn), scratch: scratch, stats: &out.stats}
	fl.pushScope()
	// clang -O0 style: copy every parameter into a stack slot so that
	// address-of works uniformly and the dependency analysis sees local
	// copies distinctly from the incoming pointer values.
	for _, p := range fn.Params {
		slot := fl.alloca(p.Ty)
		fl.b.Store(slot, p)
		fl.define(p.PName, place{addr: slot, elem: p.Ty})
	}
	if err := fl.lowerBlock(fd.Body); err != nil {
		out.err = fmt.Errorf("function %s: %w", fd.Name, err)
		return
	}
	if !fl.b.Terminated() {
		switch fn.RetTy.(type) {
		case *ir.VoidType:
			fl.b.Ret(nil)
		default:
			fl.b.Ret(ir.Const(0))
		}
	}
	fl.popScope()
}

func (fl *funcLowerer) pushScope() {
	if fl.depth == len(fl.scratch.scopes) {
		fl.scratch.scopes = append(fl.scratch.scopes, make(map[string]place))
	} else {
		clear(fl.scratch.scopes[fl.depth])
	}
	fl.depth++
}

func (fl *funcLowerer) popScope() { fl.depth-- }

func (fl *funcLowerer) define(name string, p place) { fl.scratch.scopes[fl.depth-1][name] = p }

func (fl *funcLowerer) lookup(name string) (place, bool) {
	for i := fl.depth - 1; i >= 0; i-- {
		if p, ok := fl.scratch.scopes[i][name]; ok {
			return p, true
		}
	}
	return place{}, false
}

func (fl *funcLowerer) newBlock(kind string) *ir.Block {
	fl.blkSeq++
	// strconv.AppendInt into the reusable buffer: block naming was a
	// fmt.Sprintf per basic block, visible on million-line profiles.
	buf := append(fl.scratch.nameBuf[:0], kind...)
	buf = strconv.AppendInt(buf, int64(fl.blkSeq), 10)
	fl.scratch.nameBuf = buf
	return fl.b.NewBlock(string(buf))
}

// ensureFlow starts a fresh unreachable block if the current one is
// already terminated, so statements after return/break lower legally.
func (fl *funcLowerer) ensureFlow() {
	if fl.b.Terminated() {
		fl.b.SetBlock(fl.newBlock("dead"))
	}
}

func (fl *funcLowerer) lowerBlock(b *BlockStmt) error {
	fl.pushScope()
	defer fl.popScope()
	for _, s := range b.Stmts {
		if err := fl.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fl *funcLowerer) lowerStmt(s Stmt) error {
	fl.ensureFlow()
	switch st := s.(type) {
	case *BlockStmt:
		return fl.lowerBlock(st)
	case *ExprStmt:
		_, err := fl.lowerExprAllowVoid(st.X)
		return err
	case *DeclStmt:
		return fl.lowerLocalDecl(st.Decl)
	case *ReturnStmt:
		if st.Val == nil {
			fl.b.Ret(nil)
			return nil
		}
		v, err := fl.lowerExpr(st.Val)
		if err != nil {
			return err
		}
		fl.b.Ret(v)
		return nil
	case *IfStmt:
		return fl.lowerIf(st)
	case *WhileStmt:
		return fl.lowerWhile(st)
	case *ForStmt:
		return fl.lowerFor(st)
	case *BreakStmt:
		if len(fl.loops) == 0 {
			return fmt.Errorf("line %d: break outside loop or switch", st.Line)
		}
		fl.b.Br(fl.loops[len(fl.loops)-1].breakTo)
		return nil
	case *ContinueStmt:
		// continue skips switch contexts and targets the innermost loop.
		for i := len(fl.loops) - 1; i >= 0; i-- {
			if fl.loops[i].continueTo != nil {
				fl.b.Br(fl.loops[i].continueTo)
				return nil
			}
		}
		return fmt.Errorf("line %d: continue outside loop", st.Line)
	case *SwitchStmt:
		return fl.lowerSwitch(st)
	}
	return fmt.Errorf("unsupported statement %T", s)
}

func (fl *funcLowerer) lowerLocalDecl(vd *VarDecl) error {
	ty, err := fl.c.resolveType(vd.Type)
	if err != nil {
		return fmt.Errorf("line %d: local %s: %w", vd.Line, vd.Name, err)
	}
	if vd.Type.IsVoid() {
		return fmt.Errorf("line %d: local %s has type void", vd.Line, vd.Name)
	}
	slot := fl.alloca(ty)
	fl.define(vd.Name, place{addr: slot, elem: ty, volatile: vd.Volatile, atomic: vd.Atomic})
	if vd.Init != nil {
		v, err := fl.lowerCallee(vd.Init, ty)
		if err != nil {
			return err
		}
		fl.storePlace(place{addr: slot, elem: ty, volatile: vd.Volatile, atomic: vd.Atomic}, v)
	}
	if vd.InitList != nil {
		at, ok := ty.(*ir.ArrayType)
		if !ok {
			return fmt.Errorf("line %d: initializer list on non-array local %s", vd.Line, vd.Name)
		}
		for i, e := range vd.InitList {
			v, err := fl.lowerExpr(e)
			if err != nil {
				return err
			}
			ep := fl.b.IndexPtr(slot, at, ir.Const(int64(i)))
			fl.b.Store(ep, v)
		}
	}
	return nil
}

// lowerCallee lowers an initializer/RHS expression, giving untyped malloc
// results the declared pointer type.
func (fl *funcLowerer) lowerCallee(e Expr, want ir.Type) (ir.Value, error) {
	if call, ok := e.(*Call); ok && call.Name == "malloc" {
		if pt, isPtr := want.(*ir.PtrType); isPtr {
			return fl.lowerMalloc(call, pt.Elem)
		}
	}
	return fl.lowerExpr(e)
}

func (fl *funcLowerer) lowerIf(st *IfStmt) error {
	cond, err := fl.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	then := fl.newBlock("then")
	var els *ir.Block
	join := fl.newBlock("endif")
	if st.Else != nil {
		els = fl.newBlock("else")
		fl.condBr(cond, then, els)
	} else {
		fl.condBr(cond, then, join)
	}
	fl.b.SetBlock(then)
	if err := fl.lowerStmt(st.Then); err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(join)
	}
	if st.Else != nil {
		fl.b.SetBlock(els)
		if err := fl.lowerStmt(st.Else); err != nil {
			return err
		}
		if !fl.b.Terminated() {
			fl.b.Br(join)
		}
	}
	fl.b.SetBlock(join)
	return nil
}

// condBr branches on a C truth value (any nonzero i64).
func (fl *funcLowerer) condBr(v ir.Value, then, els *ir.Block) {
	fl.b.CondBr(v, then, els)
}

func (fl *funcLowerer) lowerWhile(st *WhileStmt) error {
	condBlk := fl.newBlock("cond")
	bodyBlk := fl.newBlock("body")
	exitBlk := fl.newBlock("endloop")
	if st.DoWhile {
		fl.b.Br(bodyBlk)
	} else {
		fl.b.Br(condBlk)
	}
	fl.loops = append(fl.loops, loopCtx{continueTo: condBlk, breakTo: exitBlk})
	fl.b.SetBlock(bodyBlk)
	if err := fl.lowerStmt(st.Body); err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(condBlk)
	}
	fl.b.SetBlock(condBlk)
	cond, err := fl.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	fl.condBr(cond, bodyBlk, exitBlk)
	fl.loops = fl.loops[:len(fl.loops)-1]
	fl.b.SetBlock(exitBlk)
	return nil
}

// lowerSwitch lowers a C switch: the tag is evaluated once, compared
// against each case constant in order, and case bodies fall through
// unless terminated. break targets the switch end; continue passes
// through to the enclosing loop.
func (fl *funcLowerer) lowerSwitch(st *SwitchStmt) error {
	tag, err := fl.lowerExpr(st.Tag)
	if err != nil {
		return err
	}
	end := fl.newBlock("endswitch")
	bodies := make([]*ir.Block, len(st.Cases))
	defaultIdx := -1
	for i, c := range st.Cases {
		bodies[i] = fl.newBlock("case")
		if c.Default {
			if defaultIdx >= 0 {
				return fmt.Errorf("line %d: multiple default cases", st.Line)
			}
			defaultIdx = i
		}
	}
	// Dispatch chain.
	for i, c := range st.Cases {
		if c.Default {
			continue
		}
		v, err := constEval(c.Value)
		if err != nil {
			return fmt.Errorf("line %d: case label: %w", st.Line, err)
		}
		cond := fl.b.ICmp(ir.EQ, tag, ir.Const(v))
		next := fl.newBlock("dispatch")
		fl.b.CondBr(cond, bodies[i], next)
		fl.b.SetBlock(next)
	}
	if defaultIdx >= 0 {
		fl.b.Br(bodies[defaultIdx])
	} else {
		fl.b.Br(end)
	}
	// Bodies with fallthrough.
	fl.loops = append(fl.loops, loopCtx{breakTo: end})
	for i, c := range st.Cases {
		fl.b.SetBlock(bodies[i])
		fl.pushScope()
		for _, s := range c.Body {
			if err := fl.lowerStmt(s); err != nil {
				fl.popScope()
				return err
			}
		}
		fl.popScope()
		if !fl.b.Terminated() {
			if i+1 < len(st.Cases) {
				fl.b.Br(bodies[i+1])
			} else {
				fl.b.Br(end)
			}
		}
	}
	fl.loops = fl.loops[:len(fl.loops)-1]
	fl.b.SetBlock(end)
	return nil
}

func (fl *funcLowerer) lowerFor(st *ForStmt) error {
	fl.pushScope()
	defer fl.popScope()
	if st.Init != nil {
		if err := fl.lowerStmt(st.Init); err != nil {
			return err
		}
	}
	condBlk := fl.newBlock("forcond")
	bodyBlk := fl.newBlock("forbody")
	postBlk := fl.newBlock("forpost")
	exitBlk := fl.newBlock("endfor")
	fl.b.Br(condBlk)
	fl.b.SetBlock(condBlk)
	if st.Cond != nil {
		cond, err := fl.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		fl.condBr(cond, bodyBlk, exitBlk)
	} else {
		fl.b.Br(bodyBlk)
	}
	fl.loops = append(fl.loops, loopCtx{continueTo: postBlk, breakTo: exitBlk})
	fl.b.SetBlock(bodyBlk)
	if err := fl.lowerStmt(st.Body); err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(postBlk)
	}
	fl.b.SetBlock(postBlk)
	if st.Post != nil {
		if _, err := fl.lowerExprAllowVoid(st.Post); err != nil {
			return err
		}
	}
	fl.b.Br(condBlk)
	fl.loops = fl.loops[:len(fl.loops)-1]
	fl.b.SetBlock(exitBlk)
	return nil
}
