package minic

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// loadPlace materializes the rvalue of a place, applying volatile and
// _Atomic access semantics (C11 _Atomic accesses default to seq_cst).
func (fl *funcLowerer) loadPlace(p place) ir.Value {
	// Arrays decay to a pointer to their first element.
	if at, ok := p.elem.(*ir.ArrayType); ok {
		return fl.b.IndexPtr(p.addr, at, ir.Const(0))
	}
	ld := fl.b.Load(p.addr)
	ld.Volatile = p.volatile
	if p.atomic {
		ld.Ord = ir.SeqCst
	}
	return ld
}

func (fl *funcLowerer) storePlace(p place, v ir.Value) {
	st := fl.b.Store(p.addr, v)
	st.Volatile = p.volatile
	if p.atomic {
		st.Ord = ir.SeqCst
	}
}

// lowerExpr lowers an expression whose value is consumed. A void-typed
// result (a call to a void function, or a barrier builtin) is an error
// here: the IR has no register for it, so a use could never resolve.
func (fl *funcLowerer) lowerExpr(e Expr) (ir.Value, error) {
	v, err := fl.lowerExprAllowVoid(e)
	if err != nil {
		return nil, err
	}
	if v != nil && v.Type() == ir.Void {
		return nil, fmt.Errorf("void value used in an expression")
	}
	return v, nil
}

// lowerExprAllowVoid lowers an expression in a context that discards
// its value (expression statements, for-loop post expressions), where
// calling a void function is legal.
func (fl *funcLowerer) lowerExprAllowVoid(e Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *NumLit:
		return ir.Const(x.Val), nil
	case *Ident:
		p, err := fl.lowerPlace(x)
		if err != nil {
			return nil, err
		}
		return fl.loadPlace(p), nil
	case *Index, *Member:
		p, err := fl.lowerPlace(e)
		if err != nil {
			return nil, err
		}
		return fl.loadPlace(p), nil
	case *Assign:
		v, err := fl.lowerAssign(x)
		return v, err
	case *CompoundAssign:
		return fl.lowerCompoundAssign(x)
	case *IncDec:
		return fl.lowerIncDec(x)
	case *Unary:
		return fl.lowerUnary(x)
	case *Binary:
		return fl.lowerBinary(x)
	case *Call:
		return fl.lowerCall(x)
	case *Cast:
		return fl.lowerCast(x)
	case *SizeOf:
		ty, err := fl.c.resolveType(x.Type)
		if err != nil {
			return nil, err
		}
		return ir.Const(int64(ty.Cells())), nil
	case *AsmExpr:
		return fl.lowerAsm(x)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func (fl *funcLowerer) lowerAssign(x *Assign) (ir.Value, error) {
	p, err := fl.lowerPlace(x.LHS)
	if err != nil {
		return nil, err
	}
	v, err := fl.lowerCallee(x.RHS, p.elem)
	if err != nil {
		return nil, err
	}
	fl.storePlace(p, v)
	return v, nil
}

// lowerCompoundAssign lowers "lhs op= rhs": the lvalue is computed once.
func (fl *funcLowerer) lowerCompoundAssign(x *CompoundAssign) (ir.Value, error) {
	p, err := fl.lowerPlace(x.LHS)
	if err != nil {
		return nil, err
	}
	kind, ok := binOps[x.Op]
	if !ok {
		return nil, fmt.Errorf("unsupported compound operator %q=", x.Op)
	}
	cur := fl.loadPlace(p)
	rhs, err := fl.lowerExpr(x.RHS)
	if err != nil {
		return nil, err
	}
	res := fl.b.Bin(kind, cur, rhs)
	fl.storePlace(p, res)
	return res, nil
}

// lowerIncDec lowers ++/--; postfix yields the old value.
func (fl *funcLowerer) lowerIncDec(x *IncDec) (ir.Value, error) {
	p, err := fl.lowerPlace(x.X)
	if err != nil {
		return nil, err
	}
	cur := fl.loadPlace(p)
	kind := ir.Add
	if x.Op == "--" {
		kind = ir.Sub
	}
	nv := fl.b.Bin(kind, cur, ir.Const(1))
	fl.storePlace(p, nv)
	if x.Post {
		return cur, nil
	}
	return nv, nil
}

// lowerPlace lowers an expression in lvalue position.
func (fl *funcLowerer) lowerPlace(e Expr) (place, error) {
	switch x := e.(type) {
	case *Ident:
		if p, ok := fl.lookup(x.Name); ok {
			return p, nil
		}
		if g := fl.c.mod.Global(x.Name); g != nil {
			return place{addr: g, elem: g.Elem, volatile: g.Volatile, atomic: g.Atomic}, nil
		}
		return place{}, fmt.Errorf("line %d: undefined variable %q", x.Line, x.Name)
	case *Unary:
		if x.Op != "*" {
			return place{}, fmt.Errorf("expression %q is not assignable", x.Op)
		}
		v, err := fl.lowerExpr(x.X)
		if err != nil {
			return place{}, err
		}
		elem := ir.Pointee(v.Type())
		if elem == nil {
			return place{}, fmt.Errorf("dereference of non-pointer")
		}
		return place{addr: v, elem: elem}, nil
	case *Index:
		return fl.lowerIndexPlace(x)
	case *Member:
		return fl.lowerMemberPlace(x)
	case *Cast:
		// Lvalue casts like (*(int*)&p) are not needed by the corpus; a
		// cast in place position casts the address.
		inner, err := fl.lowerPlace(x.X)
		if err != nil {
			return place{}, err
		}
		ty, err := fl.c.resolveType(x.Type)
		if err != nil {
			return place{}, err
		}
		return place{addr: inner.addr, elem: ty, volatile: inner.volatile, atomic: inner.atomic}, nil
	}
	return place{}, fmt.Errorf("expression %T is not assignable", e)
}

func (fl *funcLowerer) lowerIndexPlace(x *Index) (place, error) {
	idx, err := fl.lowerExpr(x.Idx)
	if err != nil {
		return place{}, err
	}
	// Array lvalue: index within the aggregate. Otherwise the base is a
	// pointer rvalue and this is pointer arithmetic.
	if p, err := fl.lowerPlace(x.X); err == nil {
		if at, ok := p.elem.(*ir.ArrayType); ok {
			ep := fl.b.IndexPtr(p.addr, at, idx)
			return place{addr: ep, elem: at.Elem, volatile: p.volatile, atomic: p.atomic}, nil
		}
		// The place holds a pointer: load it, then index.
		if pt, ok := p.elem.(*ir.PtrType); ok {
			base := fl.loadPlace(p)
			ep := fl.b.GEP(base, pt.Elem, []ir.GEPStep{{Field: -1}}, idx)
			return place{addr: ep, elem: pt.Elem}, nil
		}
		return place{}, fmt.Errorf("subscript of non-array, non-pointer")
	}
	base, err := fl.lowerExpr(x.X)
	if err != nil {
		return place{}, err
	}
	elem := ir.Pointee(base.Type())
	if elem == nil {
		return place{}, fmt.Errorf("subscript of non-pointer value")
	}
	ep := fl.b.GEP(base, elem, []ir.GEPStep{{Field: -1}}, idx)
	return place{addr: ep, elem: elem}, nil
}

func (fl *funcLowerer) lowerMemberPlace(x *Member) (place, error) {
	var baseAddr ir.Value
	var st *ir.StructType
	if x.Arrow {
		v, err := fl.lowerExpr(x.X)
		if err != nil {
			return place{}, err
		}
		elem := ir.Pointee(v.Type())
		s, ok := elem.(*ir.StructType)
		if !ok {
			return place{}, fmt.Errorf("line %d: -> on non-struct-pointer", x.Line)
		}
		baseAddr, st = v, s
	} else {
		p, err := fl.lowerPlace(x.X)
		if err != nil {
			return place{}, err
		}
		s, ok := p.elem.(*ir.StructType)
		if !ok {
			return place{}, fmt.Errorf("line %d: . on non-struct", x.Line)
		}
		baseAddr, st = p.addr, s
	}
	idx := st.FieldIndex(x.Name)
	if idx < 0 {
		return place{}, fmt.Errorf("line %d: struct %s has no field %q", x.Line, st.TypeName, x.Name)
	}
	f := st.Fields[idx]
	fp := fl.b.GEP(baseAddr, st, []ir.GEPStep{{Field: idx}})
	return place{addr: fp, elem: f.Type, volatile: f.Volatile, atomic: f.Atomic}, nil
}

func (fl *funcLowerer) lowerUnary(x *Unary) (ir.Value, error) {
	switch x.Op {
	case "&":
		p, err := fl.lowerPlace(x.X)
		if err != nil {
			return nil, err
		}
		return p.addr, nil
	case "*":
		p, err := fl.lowerPlace(x)
		if err != nil {
			return nil, err
		}
		return fl.loadPlace(p), nil
	case "-":
		v, err := fl.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		return fl.b.Bin(ir.Sub, ir.Const(0), v), nil
	case "!":
		v, err := fl.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		return fl.b.ICmp(ir.EQ, v, ir.Const(0)), nil
	case "~":
		v, err := fl.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		return fl.b.Bin(ir.Xor, v, ir.Const(-1)), nil
	}
	return nil, fmt.Errorf("unsupported unary operator %q", x.Op)
}

var binOps = map[string]ir.BinKind{
	"+": ir.Add, "-": ir.Sub, "*": ir.Mul, "/": ir.Div, "%": ir.Rem,
	"&": ir.And, "|": ir.Or, "^": ir.Xor, "<<": ir.Shl, ">>": ir.Shr,
}

var cmpOps = map[string]ir.Pred{
	"==": ir.EQ, "!=": ir.NE, "<": ir.LT, "<=": ir.LE, ">": ir.GT, ">=": ir.GE,
}

// Memory orders of the explicit-order load/store builtins. Package-level
// so lowerCall does not build a map literal per call site.
var loadOrds = map[string]ir.MemOrder{
	"__load_rlx": ir.Relaxed, "__load_acq": ir.Acquire, "__load_sc": ir.SeqCst,
}

var storeOrds = map[string]ir.MemOrder{
	"__store_rlx": ir.Relaxed, "__store_rel": ir.Release, "__store_sc": ir.SeqCst,
}

func (fl *funcLowerer) lowerBinary(x *Binary) (ir.Value, error) {
	if x.Op == "&&" || x.Op == "||" {
		return fl.lowerShortCircuit(x)
	}
	a, err := fl.lowerExpr(x.X)
	if err != nil {
		return nil, err
	}
	b, err := fl.lowerExpr(x.Y)
	if err != nil {
		return nil, err
	}
	if pred, ok := cmpOps[x.Op]; ok {
		return fl.b.ICmp(pred, a, b), nil
	}
	if kind, ok := binOps[x.Op]; ok {
		return fl.b.Bin(kind, a, b), nil
	}
	return nil, fmt.Errorf("unsupported binary operator %q", x.Op)
}

// lowerShortCircuit lowers && and || with C short-circuit evaluation,
// producing an i64 0/1 via a stack slot.
func (fl *funcLowerer) lowerShortCircuit(x *Binary) (ir.Value, error) {
	res := fl.alloca(ir.I64)
	a, err := fl.lowerExpr(x.X)
	if err != nil {
		return nil, err
	}
	evalY := fl.newBlock("sc_rhs")
	short := fl.newBlock("sc_short")
	join := fl.newBlock("sc_join")
	if x.Op == "&&" {
		fl.b.CondBr(a, evalY, short)
	} else {
		fl.b.CondBr(a, short, evalY)
	}
	fl.b.SetBlock(short)
	if x.Op == "&&" {
		fl.b.Store(res, ir.Const(0))
	} else {
		fl.b.Store(res, ir.Const(1))
	}
	fl.b.Br(join)
	fl.b.SetBlock(evalY)
	bv, err := fl.lowerExpr(x.Y)
	if err != nil {
		return nil, err
	}
	norm := fl.b.ICmp(ir.NE, bv, ir.Const(0))
	fl.b.Store(res, norm)
	fl.b.Br(join)
	fl.b.SetBlock(join)
	return fl.b.Load(res), nil
}

func (fl *funcLowerer) lowerCast(x *Cast) (ir.Value, error) {
	ty, err := fl.c.resolveType(x.Type)
	if err != nil {
		return nil, err
	}
	v, err := fl.lowerExprWithHint(x.X, ty)
	if err != nil {
		return nil, err
	}
	pt, ok := ty.(*ir.PtrType)
	if !ok {
		// Integer casts are value-preserving in the cell model.
		return v, nil
	}
	if ir.TypesEqual(v.Type(), ty) {
		return v, nil
	}
	// Integer-to-pointer casts (including the null constant) are
	// value-preserving in the cell model.
	if !ir.IsPtr(v.Type()) {
		return v, nil
	}
	// Retype the pointer with an empty-path GEP (a bitcast).
	in := fl.b.GEP(v, pt.Elem, nil)
	return in, nil
}

func (fl *funcLowerer) lowerExprWithHint(e Expr, want ir.Type) (ir.Value, error) {
	if call, ok := e.(*Call); ok && call.Name == "malloc" {
		if pt, isPtr := want.(*ir.PtrType); isPtr {
			return fl.lowerMalloc(call, pt.Elem)
		}
	}
	return fl.lowerExpr(e)
}

func (fl *funcLowerer) lowerMalloc(call *Call, elem ir.Type) (ir.Value, error) {
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("line %d: malloc takes one argument", call.Line)
	}
	size, err := fl.lowerExpr(call.Args[0])
	if err != nil {
		return nil, err
	}
	in := fl.b.Call(ir.PointerTo(elem), "malloc", size)
	return in, nil
}

// x86 inline-assembly idioms mapped to builtins by the frontend, as the
// paper's frontend pass does (section 3.2). Lock-prefixed instructions
// and mfence are full barriers on x86; the compiler builtin counterpart
// is a seq_cst fence. pause and rep;nop are scheduling hints.
func classifyAsm(text string) (kind string) {
	t := strings.ToLower(strings.TrimSpace(text))
	t = strings.ReplaceAll(t, "\t", " ")
	switch {
	case strings.Contains(t, "mfence"):
		return "fence_sc"
	case strings.Contains(t, "lfence"):
		return "fence_acq"
	case strings.Contains(t, "sfence"):
		return "fence_rel"
	case strings.HasPrefix(t, "lock"):
		return "fence_sc"
	case strings.Contains(t, "pause") || strings.Contains(t, "rep; nop") || strings.Contains(t, "rep;nop"):
		return "pause"
	case t == "" || t == "memory" || strings.Contains(t, ":::"):
		// Pure compiler barrier.
		return "compiler_barrier"
	}
	return "opaque"
}

func (fl *funcLowerer) lowerAsm(x *AsmExpr) (ir.Value, error) {
	switch classifyAsm(x.Text) {
	case "fence_sc":
		in := fl.b.Fence(ir.SeqCst)
		in.SetMark(ir.MarkFromAsm)
		fl.stats.AsmMapped++
		return ir.Const(0), nil
	case "fence_acq":
		in := fl.b.Fence(ir.Acquire)
		in.SetMark(ir.MarkFromAsm)
		fl.stats.AsmMapped++
		return ir.Const(0), nil
	case "fence_rel":
		in := fl.b.Fence(ir.Release)
		in.SetMark(ir.MarkFromAsm)
		fl.stats.AsmMapped++
		return ir.Const(0), nil
	case "pause":
		fl.b.Call(ir.Void, "pause")
		fl.stats.AsmMapped++
		return ir.Const(0), nil
	case "compiler_barrier":
		// Emit a marker: the barrier has no runtime semantics, but its
		// placement is a synchronization hint (paper section 6 proposes
		// compiler barriers as additional detection entry points).
		fl.b.Call(ir.Void, "compiler_barrier")
		fl.stats.AsmMapped++
		return ir.Const(0), nil
	}
	fl.stats.AsmOpaque++
	fl.b.Call(ir.Void, "asm")
	return ir.Const(0), nil
}

// Builtin lowering table. Atomic builtins default to the orderings a
// straightforward Arm port produces: read-modify-writes are acq_rel
// (LDAXR/STLXR pairs), which is precisely the weakness behind the
// MariaDB lf-hash bug the paper analyzes.
func (fl *funcLowerer) lowerCall(x *Call) (ir.Value, error) {
	argVals := func(want int) ([]ir.Value, error) {
		if len(x.Args) != want {
			return nil, fmt.Errorf("line %d: %s takes %d argument(s), got %d", x.Line, x.Name, want, len(x.Args))
		}
		vs := make([]ir.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := fl.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return vs, nil
	}
	ptrArg := func(v ir.Value) error {
		if !ir.IsPtr(v.Type()) {
			return fmt.Errorf("line %d: %s needs a pointer argument", x.Line, x.Name)
		}
		return nil
	}
	switch x.Name {
	case "__cas":
		vs, err := argVals(3)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		return fl.b.CmpXchg(vs[0], vs[1], vs[2], ir.AcqRel), nil
	case "__xchg":
		vs, err := argVals(2)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		return fl.b.RMW(ir.RMWXchg, vs[0], vs[1], ir.AcqRel), nil
	case "__faa":
		vs, err := argVals(2)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		return fl.b.RMW(ir.RMWAdd, vs[0], vs[1], ir.AcqRel), nil
	case "__fas":
		vs, err := argVals(2)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		return fl.b.RMW(ir.RMWSub, vs[0], vs[1], ir.AcqRel), nil
	case "__fence":
		if _, err := argVals(0); err != nil {
			return nil, err
		}
		fl.b.Fence(ir.SeqCst)
		return ir.Const(0), nil
	case "__fence_acq":
		if _, err := argVals(0); err != nil {
			return nil, err
		}
		fl.b.Fence(ir.Acquire)
		return ir.Const(0), nil
	case "__fence_rel":
		if _, err := argVals(0); err != nil {
			return nil, err
		}
		fl.b.Fence(ir.Release)
		return ir.Const(0), nil
	case "__load_rlx", "__load_acq", "__load_sc":
		vs, err := argVals(1)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		return fl.b.LoadOrd(vs[0], loadOrds[x.Name]), nil
	case "__store_rlx", "__store_rel", "__store_sc":
		vs, err := argVals(2)
		if err != nil {
			return nil, err
		}
		if err := ptrArg(vs[0]); err != nil {
			return nil, err
		}
		fl.b.StoreOrd(vs[0], vs[1], storeOrds[x.Name])
		return ir.Const(0), nil
	case "spawn":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("line %d: spawn takes a function name", x.Line)
		}
		id, ok := x.Args[0].(*Ident)
		if !ok {
			return nil, fmt.Errorf("line %d: spawn argument must name a function", x.Line)
		}
		if fl.c.mod.Func(id.Name) == nil {
			return nil, fmt.Errorf("line %d: spawn of unknown function %q", x.Line, id.Name)
		}
		fl.b.Call(ir.Void, "spawn", &ir.FuncRef{Name: id.Name})
		return ir.Const(0), nil
	case "malloc":
		return fl.lowerMalloc(x, ir.I64)
	case "assert", "print", "free":
		vs := make([]ir.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := fl.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		fl.b.Call(ir.Void, x.Name, vs...)
		return ir.Const(0), nil
	case "barrier":
		// barrier(n): rendezvous of n threads (pthread_barrier-style).
		vs, err := argVals(1)
		if err != nil {
			return nil, err
		}
		fl.b.Call(ir.Void, "barrier", vs[0])
		return ir.Const(0), nil
	case "join", "yield", "pause":
		if _, err := argVals(0); err != nil {
			return nil, err
		}
		fl.b.Call(ir.Void, x.Name)
		return ir.Const(0), nil
	case "tid", "nondet":
		if _, err := argVals(0); err != nil {
			return nil, err
		}
		return fl.b.Call(ir.I64, x.Name), nil
	}
	// User-defined function.
	callee := fl.c.mod.Func(x.Name)
	if callee == nil {
		return nil, fmt.Errorf("line %d: call to undefined function %q", x.Line, x.Name)
	}
	if len(x.Args) != len(callee.Params) {
		return nil, fmt.Errorf("line %d: %s takes %d argument(s), got %d",
			x.Line, x.Name, len(callee.Params), len(x.Args))
	}
	vs := make([]ir.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := fl.lowerExprWithHint(a, callee.Params[i].Ty)
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return fl.b.Call(callee.RetTy, x.Name, vs...), nil
}
