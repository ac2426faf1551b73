package ir

import (
	"fmt"
	"strconv"
	"strings"
)

var binByName = map[string]BinKind{
	"add": Add, "sub": Sub, "mul": Mul, "sdiv": Div, "srem": Rem,
	"and": And, "or": Or, "xor": Xor, "shl": Shl, "ashr": Shr,
}

var predByName = map[string]Pred{
	"eq": EQ, "ne": NE, "slt": LT, "sle": LE, "sgt": GT, "sge": GE,
}

var rmwByName = map[string]RMWKind{
	"add": RMWAdd, "sub": RMWSub, "and": RMWAnd, "or": RMWOr,
	"xor": RMWXor, "xchg": RMWXchg,
}

var ordByName = map[string]MemOrder{
	"relaxed": Relaxed, "acquire": Acquire, "release": Release,
	"acq_rel": AcqRel, "seq_cst": SeqCst,
}

var markByName = map[string]Mark{
	"spin": MarkSpinControl, "opt": MarkOptControl, "sticky": MarkSticky,
	"volatile": MarkFromVolatile, "atomic-upgrade": MarkFromAtomic,
	"asm": MarkFromAsm, "inserted": MarkInsertedFence, "naive": MarkNaive,
	"weakened": MarkWeakened,
}

// pendingOperand is an unresolved operand reference.
type pendingOperand struct {
	in  *Instr
	idx int
	ref string
}

// funcResolver holds per-function resolution state.
type funcResolver struct {
	p       *moduleParser
	fn      *Func
	byID    map[int]*Instr
	byBlock map[string]*Block
	pending []pendingOperand
}

// buildInstrShells creates instruction objects for a raw function,
// recording operand references for later resolution.
func (p *moduleParser) buildInstrShells(rf *rawFunc) error {
	r := &funcResolver{
		p:       p,
		fn:      rf.fn,
		byID:    make(map[int]*Instr),
		byBlock: make(map[string]*Block),
	}
	rf.fn.resolver = r
	for _, b := range rf.blocks {
		if _, dup := r.byBlock[b.Name]; dup {
			return fmt.Errorf("@%s: duplicate block %%%s", rf.fn.Name, b.Name)
		}
		r.byBlock[b.Name] = b
	}
	for _, b := range rf.blocks {
		for _, ri := range rf.instrs[b] {
			in, err := r.parseInstr(b, ri)
			if err != nil {
				return fmt.Errorf("line %d: %w", ri.line, err)
			}
			// A register bound to a void instruction would be dropped by
			// the printer (void results are unnamed), so its uses could
			// never resolve on a re-parse; reject it here.
			if ri.result >= 0 && in.Type() == Void {
				return fmt.Errorf("line %d: register %%t%d assigned from a void instruction", ri.line, ri.result)
			}
			b.Instrs = append(b.Instrs, in)
		}
	}
	// Number void instructions (the printer omits their IDs) and set the
	// function's ID watermark.
	rf.fn.NumberUnnamed()
	return nil
}

// parseInstr creates one instruction shell.
func (r *funcResolver) parseInstr(b *Block, ri rawInstr) (*Instr, error) {
	text, comment, _ := strings.Cut(ri.text, " ; ")
	text = strings.TrimSpace(text)
	in := &Instr{ID: ri.result, Blk: b, Ty: Void}
	if ri.result >= 0 {
		if _, dup := r.byID[ri.result]; dup {
			return nil, fmt.Errorf("duplicate register %%t%d", ri.result)
		}
		r.byID[ri.result] = in
	}
	if err := r.parseMarks(in, comment); err != nil {
		return nil, err
	}
	op, rest, _ := strings.Cut(text, " ")
	switch op {
	case "alloca":
		ty, tail, err := r.p.parseType(rest)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(tail) != "" {
			return nil, fmt.Errorf("trailing %q after alloca", tail)
		}
		in.Op = OpAlloca
		in.AllocElem = ty
		in.Ty = PointerTo(ty)
	case "load":
		ty, tail, err := r.p.parseType(rest)
		if err != nil {
			return nil, err
		}
		tail = strings.TrimPrefix(strings.TrimSpace(tail), ",")
		operand, attrs := splitOperandAttrs(tail)
		in.Op = OpLoad
		in.Ty = ty
		r.addOperand(in, operand)
		if err := r.parseAccessAttrs(in, attrs); err != nil {
			return nil, err
		}
	case "store":
		parts := splitTopLevel(rest, ',')
		if len(parts) != 2 {
			return nil, fmt.Errorf("store needs 2 operands")
		}
		operand2, attrs := splitOperandAttrs(strings.TrimSpace(parts[1]))
		in.Op = OpStore
		r.addOperand(in, strings.TrimSpace(parts[0])) // value placeholder: fixed below
		// Printer order is "store VALUE, ADDR": swap to Args[0]=addr.
		r.addOperand(in, operand2)
		r.swapLastTwo(in)
		if err := r.parseAccessAttrs(in, attrs); err != nil {
			return nil, err
		}
	case "cmpxchg":
		parts := splitTopLevel(rest, ',')
		if len(parts) != 3 {
			return nil, fmt.Errorf("cmpxchg needs 3 operands")
		}
		last, attrs := splitOperandAttrs(strings.TrimSpace(parts[2]))
		in.Op = OpCmpXchg
		in.Ty = I64 // result: the old cell value
		r.addOperand(in, strings.TrimSpace(parts[0]))
		r.addOperand(in, strings.TrimSpace(parts[1]))
		r.addOperand(in, last)
		if err := r.parseAccessAttrs(in, attrs); err != nil {
			return nil, err
		}
	case "atomicrmw":
		kindStr, tail, _ := strings.Cut(rest, " ")
		kind, ok := rmwByName[kindStr]
		if !ok {
			return nil, fmt.Errorf("unknown rmw kind %q", kindStr)
		}
		parts := splitTopLevel(tail, ',')
		if len(parts) != 2 {
			return nil, fmt.Errorf("atomicrmw needs 2 operands")
		}
		last, attrs := splitOperandAttrs(strings.TrimSpace(parts[1]))
		in.Op = OpRMW
		in.RMW = kind
		in.Ty = I64 // result: the old cell value
		r.addOperand(in, strings.TrimSpace(parts[0]))
		r.addOperand(in, last)
		if err := r.parseAccessAttrs(in, attrs); err != nil {
			return nil, err
		}
	case "fence":
		ord, ok := ordByName[strings.TrimSpace(rest)]
		if !ok {
			return nil, fmt.Errorf("unknown fence order %q", rest)
		}
		in.Op = OpFence
		in.Ord = ord
	case "icmp":
		predStr, tail, _ := strings.Cut(rest, " ")
		pred, ok := predByName[predStr]
		if !ok {
			return nil, fmt.Errorf("unknown predicate %q", predStr)
		}
		parts := splitTopLevel(tail, ',')
		if len(parts) != 2 {
			return nil, fmt.Errorf("icmp needs 2 operands")
		}
		in.Op = OpICmp
		in.Pred = pred
		in.Ty = I64
		r.addOperand(in, strings.TrimSpace(parts[0]))
		r.addOperand(in, strings.TrimSpace(parts[1]))
	case "getelementptr":
		return r.parseGEP(in, rest)
	case "call":
		return r.parseCall(in, rest)
	case "br":
		return r.parseBr(in, rest)
	case "ret":
		in.Op = OpRet
		arg := strings.TrimSpace(rest)
		if arg != "void" && arg != "" {
			r.addOperand(in, arg)
		}
	default:
		if kind, ok := binByName[op]; ok {
			parts := splitTopLevel(rest, ',')
			if len(parts) != 2 {
				return nil, fmt.Errorf("%s needs 2 operands", op)
			}
			in.Op = OpBin
			in.BinKind = kind
			in.Ty = I64
			r.addOperand(in, strings.TrimSpace(parts[0]))
			r.addOperand(in, strings.TrimSpace(parts[1]))
			break
		}
		return nil, fmt.Errorf("unknown opcode %q", op)
	}
	return in, nil
}

func (r *funcResolver) parseGEP(in *Instr, rest string) (*Instr, error) {
	ty, tail, err := r.p.parseType(rest)
	if err != nil {
		return nil, err
	}
	in.Op = OpGEP
	in.GEPBase = ty
	parts := splitTopLevel(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tail), ",")), ',')
	if len(parts) == 0 || strings.TrimSpace(parts[0]) == "" {
		return nil, fmt.Errorf("gep needs a base operand")
	}
	r.addOperand(in, strings.TrimSpace(parts[0]))
	walk := ty
	for _, part := range parts[1:] {
		part = strings.TrimSpace(part)
		switch {
		case strings.HasPrefix(part, "field "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(part, "field ")))
			if err != nil {
				return nil, fmt.Errorf("bad field index %q", part)
			}
			st, ok := walk.(*StructType)
			if !ok || n < 0 || n >= len(st.Fields) {
				return nil, fmt.Errorf("field %d does not apply to %s", n, walk)
			}
			in.Path = append(in.Path, GEPStep{Field: n})
			walk = st.Fields[n].Type
		case strings.HasPrefix(part, "index "):
			in.Path = append(in.Path, GEPStep{Field: -1})
			r.addOperand(in, strings.TrimSpace(strings.TrimPrefix(part, "index ")))
			if at, ok := walk.(*ArrayType); ok {
				walk = at.Elem
			}
		default:
			return nil, fmt.Errorf("bad gep step %q", part)
		}
	}
	in.Ty = PointerTo(walk)
	return in, nil
}

func (r *funcResolver) parseCall(in *Instr, rest string) (*Instr, error) {
	ty, tail, err := r.p.parseType(rest)
	if err != nil {
		return nil, err
	}
	tail = strings.TrimSpace(tail)
	if !strings.HasPrefix(tail, "@") {
		return nil, fmt.Errorf("call needs a callee, got %q", tail)
	}
	open := strings.Index(tail, "(")
	closeIdx := strings.LastIndex(tail, ")")
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("bad call argument list %q", tail)
	}
	in.Op = OpCall
	in.Ty = ty
	in.Callee = tail[1:open]
	args := tail[open+1 : closeIdx]
	if strings.TrimSpace(args) != "" {
		for _, a := range splitTopLevel(args, ',') {
			r.addOperand(in, strings.TrimSpace(a))
		}
	}
	return in, nil
}

func (r *funcResolver) parseBr(in *Instr, rest string) (*Instr, error) {
	in.Op = OpBr
	parts := splitTopLevel(rest, ',')
	label := func(s string) (*Block, error) {
		s = strings.TrimSpace(s)
		s = strings.TrimPrefix(s, "label ")
		s = strings.TrimPrefix(strings.TrimSpace(s), "%")
		b, ok := r.byBlock[s]
		if !ok {
			return nil, fmt.Errorf("unknown block %%%s", s)
		}
		return b, nil
	}
	switch len(parts) {
	case 1:
		b, err := label(parts[0])
		if err != nil {
			return nil, err
		}
		in.Then = b
	case 3:
		r.addOperand(in, strings.TrimSpace(parts[0]))
		thenB, err := label(parts[1])
		if err != nil {
			return nil, err
		}
		elseB, err := label(parts[2])
		if err != nil {
			return nil, err
		}
		in.Then, in.Else = thenB, elseB
	default:
		return nil, fmt.Errorf("bad branch %q", rest)
	}
	return in, nil
}

// splitOperandAttrs separates an operand from trailing access
// attributes ("volatile", an ordering).
func splitOperandAttrs(s string) (operand, attrs string) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return "", ""
	}
	operand = fields[0]
	attrs = strings.Join(fields[1:], " ")
	return operand, attrs
}

func (r *funcResolver) parseAccessAttrs(in *Instr, attrs string) error {
	for _, f := range strings.Fields(attrs) {
		if f == "volatile" {
			in.Volatile = true
			continue
		}
		ord, ok := ordByName[f]
		if !ok {
			return fmt.Errorf("unknown access attribute %q", f)
		}
		in.Ord = ord
	}
	return nil
}

func (r *funcResolver) parseMarks(in *Instr, comment string) error {
	comment = strings.TrimSpace(comment)
	if comment == "" {
		return nil
	}
	comment = strings.TrimPrefix(comment, "[")
	comment = strings.TrimSuffix(comment, "]")
	for _, m := range strings.Split(comment, ",") {
		mark, ok := markByName[strings.TrimSpace(m)]
		if !ok {
			return fmt.Errorf("unknown mark %q", m)
		}
		in.SetMark(mark)
	}
	return nil
}

// addOperand records an operand reference for later resolution.
func (r *funcResolver) addOperand(in *Instr, ref string) {
	in.Args = append(in.Args, nil)
	r.pending = append(r.pending, pendingOperand{in: in, idx: len(in.Args) - 1, ref: ref})
}

func (r *funcResolver) swapLastTwo(in *Instr) {
	n := len(r.pending)
	r.pending[n-1].idx, r.pending[n-2].idx = r.pending[n-2].idx, r.pending[n-1].idx
	r.pending[n-1], r.pending[n-2] = r.pending[n-2], r.pending[n-1]
}

// resolveOperands fills in all pending operand references.
func (p *moduleParser) resolveOperands(rf *rawFunc) error {
	r := rf.fn.resolver.(*funcResolver)
	rf.fn.resolver = nil
	params := make(map[string]*Param, len(rf.fn.Params))
	for _, pa := range rf.fn.Params {
		params[pa.PName] = pa
	}
	for _, pd := range r.pending {
		v, err := r.resolveRef(pd.ref, params)
		if err != nil {
			return fmt.Errorf("@%s: %w", rf.fn.Name, err)
		}
		pd.in.Args[pd.idx] = v
	}
	// Fix up result types that depend on operands.
	var fixErr error
	rf.fn.Instrs(func(in *Instr) {
		if fixErr != nil {
			return
		}
		switch in.Op {
		case OpCmpXchg, OpRMW:
			e := Pointee(in.Args[0].Type())
			if e == nil || e == Void {
				fixErr = fmt.Errorf("@%s: %s address %s is not a data pointer",
					rf.fn.Name, in.Op, in.Args[0].Operand())
				return
			}
			in.Ty = e
		case OpBin:
			in.Ty = in.Args[0].Type()
		}
	})
	return fixErr
}

func (r *funcResolver) resolveRef(ref string, params map[string]*Param) (Value, error) {
	switch {
	case ref == "":
		return nil, fmt.Errorf("empty operand")
	case strings.HasPrefix(ref, "@"):
		name := ref[1:]
		if g := r.p.mod.Global(name); g != nil {
			return g, nil
		}
		if name == r.fn.Name || r.p.mod.Func(name) != nil || r.p.delta {
			return &FuncRef{Name: name}, nil
		}
		return nil, fmt.Errorf("unknown symbol %s", ref)
	case strings.HasPrefix(ref, "%t"):
		id, err := strconv.Atoi(ref[2:])
		if err == nil {
			if in, ok := r.byID[id]; ok {
				return in, nil
			}
		}
		// Fall through: a parameter could legitimately be named like t0.
		fallthrough
	case strings.HasPrefix(ref, "%"):
		if pa, ok := params[ref[1:]]; ok {
			return pa, nil
		}
		return nil, fmt.Errorf("unknown register or parameter %s", ref)
	default:
		n, err := strconv.ParseInt(ref, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad operand %q", ref)
		}
		return Const(n), nil
	}
}
