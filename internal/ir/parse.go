package ir

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/diag"
)

// ParseModule parses the textual AIR form produced by Module.String,
// including access attributes and analysis marks, so that modules
// survive a print/parse round trip bit-for-bit. This is the loader
// behind tooling that exchanges .air files. Malformed input produces an
// error, never a panic: an internal panic is contained by the diag
// guard and reported as a structured error.
func ParseModule(text string) (m *Module, err error) {
	defer diag.Guard("ir.ParseModule", &err)
	p := &moduleParser{}
	if err := p.run(text); err != nil {
		return nil, fmt.Errorf("ir: parse: %w", err)
	}
	return p.mod, nil
}

type rawInstr struct {
	line   int
	result int // instruction ID, or -1
	text   string
}

type rawFunc struct {
	fn     *Func
	blocks []*Block
	// instrs per block, raw.
	instrs map[*Block][]rawInstr
}

type moduleParser struct {
	mod *Module
	// delta marks a ParseFunc parse: mod is only the context, and a
	// reference to a function it lacks is accepted.
	delta bool
}

// ParseFunc parses one AIR function definition in the context of m: its
// struct types, globals and functions resolve against m. The function
// is neither added to m nor verified. Calls and function references
// name their targets, and a target m lacks is accepted, so a delta may
// call or spawn functions its batch adds; Verify of the module the
// function is installed in rejects a target that module lacks.
func ParseFunc(m *Module, text string) (f *Func, err error) {
	defer diag.Guard("ir.ParseFunc", &err)
	p := &moduleParser{mod: m, delta: true}
	lines := strings.Split(text, "\n")
	var rf *rawFunc
	for i := 0; i < len(lines); {
		l := strings.TrimSpace(lines[i])
		switch {
		case l == "":
			i++
		case strings.HasPrefix(l, "define ") && rf == nil:
			if rf, i, err = p.parseFuncShell(lines, i); err != nil {
				return nil, fmt.Errorf("ir: parse: %w", err)
			}
		default:
			return nil, fmt.Errorf("ir: parse: line %d: unexpected %q (want exactly one function definition)", i+1, l)
		}
	}
	if rf == nil {
		return nil, fmt.Errorf("ir: parse: no function definition")
	}
	if err := p.buildInstrShells(rf); err != nil {
		return nil, fmt.Errorf("ir: parse: %w", err)
	}
	if err := p.resolveOperands(rf); err != nil {
		return nil, fmt.Errorf("ir: parse: %w", err)
	}
	return rf.fn, nil
}

func (p *moduleParser) run(text string) error {
	lines := strings.Split(text, "\n")
	i := 0
	// Header comment: "; module NAME".
	name := "parsed"
	for i < len(lines) {
		l := strings.TrimSpace(lines[i])
		if l == "" {
			i++
			continue
		}
		if strings.HasPrefix(l, "; module ") {
			name = strings.TrimPrefix(l, "; module ")
			i++
		}
		break
	}
	p.mod = NewModule(name)

	var fns []*rawFunc
	// Pass 1: structs, globals, function shells with raw bodies.
	for i < len(lines) {
		l := strings.TrimSpace(lines[i])
		switch {
		case l == "":
			i++
		case strings.HasPrefix(l, "%") && strings.Contains(l, "= type"):
			if err := p.parseStruct(l, i+1); err != nil {
				return err
			}
			i++
		case strings.HasPrefix(l, "@"):
			if err := p.parseGlobal(l, i+1); err != nil {
				return err
			}
			i++
		case strings.HasPrefix(l, "define "):
			rf, next, err := p.parseFuncShell(lines, i)
			if err != nil {
				return err
			}
			if err := p.mod.AddFunc(rf.fn); err != nil {
				return fmt.Errorf("line %d: %w", i+1, err)
			}
			fns = append(fns, rf)
			i = next
		default:
			return fmt.Errorf("line %d: unexpected %q", i+1, l)
		}
	}
	// Pass 2: instruction shells (so cross-block forward references
	// resolve), then operands.
	for _, rf := range fns {
		if err := p.buildInstrShells(rf); err != nil {
			return err
		}
	}
	for _, rf := range fns {
		if err := p.resolveOperands(rf); err != nil {
			return err
		}
	}
	return Verify(p.mod)
}

// parseType parses a type at the start of s, returning the type and the
// remainder.
func (p *moduleParser) parseType(s string) (Type, string, error) {
	s = strings.TrimLeft(s, " ")
	switch {
	case strings.HasPrefix(s, "void"):
		return Void, s[4:], nil
	case strings.HasPrefix(s, "i64"):
		return I64, s[3:], nil
	case strings.HasPrefix(s, "i32"):
		return I32, s[3:], nil
	case strings.HasPrefix(s, "i8"):
		return I8, s[2:], nil
	case strings.HasPrefix(s, "i1"):
		return I1, s[2:], nil
	case strings.HasPrefix(s, "ptr "):
		elem, rest, err := p.parseType(s[4:])
		if err != nil {
			return nil, "", err
		}
		return PointerTo(elem), rest, nil
	case strings.HasPrefix(s, "%"):
		j := 1
		for j < len(s) && (isWordByte(s[j])) {
			j++
		}
		name := s[1:j]
		st, ok := p.mod.Structs[name]
		if !ok {
			return nil, "", fmt.Errorf("unknown struct %%%s", name)
		}
		return st, s[j:], nil
	case strings.HasPrefix(s, "["):
		// [N x TY]
		close := 1
		depth := 1
		for close < len(s) && depth > 0 {
			switch s[close] {
			case '[':
				depth++
			case ']':
				depth--
			}
			close++
		}
		if depth != 0 {
			return nil, "", fmt.Errorf("unterminated array type %q", s)
		}
		inner := s[1 : close-1]
		parts := strings.SplitN(inner, " x ", 2)
		if len(parts) != 2 {
			return nil, "", fmt.Errorf("bad array type %q", s[:close])
		}
		n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, "", fmt.Errorf("bad array length in %q", s[:close])
		}
		elem, rest, err := p.parseType(parts[1])
		if err != nil {
			return nil, "", err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, "", fmt.Errorf("trailing %q in array type", rest)
		}
		return &ArrayType{Elem: elem, Len: n}, s[close:], nil
	}
	return nil, "", fmt.Errorf("cannot parse type at %q", s)
}

func isWordByte(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// parseStruct parses "%name = type {ty field, ...}".
func (p *moduleParser) parseStruct(l string, lineNo int) error {
	head, body, ok := strings.Cut(l, "= type")
	if !ok {
		return fmt.Errorf("line %d: bad struct %q", lineNo, l)
	}
	name := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(head), "%"))
	body = strings.TrimSpace(body)
	body = strings.TrimPrefix(body, "{")
	body = strings.TrimSuffix(body, "}")
	st := &StructType{TypeName: name}
	if err := p.mod.AddStruct(st); err != nil {
		return fmt.Errorf("line %d: %w", lineNo, err)
	}
	if strings.TrimSpace(body) == "" {
		return nil
	}
	for _, fieldStr := range splitTopLevel(body, ',') {
		fieldStr = strings.TrimSpace(fieldStr)
		ty, rest, err := p.parseType(fieldStr)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fname := strings.TrimSpace(rest)
		// Qualifiers printed after the name.
		f := Field{Name: fname, Type: ty}
		if strings.HasSuffix(f.Name, " atomic") {
			f.Atomic = true
			f.Name = strings.TrimSuffix(f.Name, " atomic")
		}
		if strings.HasSuffix(f.Name, " volatile") {
			f.Volatile = true
			f.Name = strings.TrimSuffix(f.Name, " volatile")
		}
		st.Fields = append(st.Fields, f)
	}
	return nil
}

// splitTopLevel splits on sep outside brackets/braces.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{', '(':
			depth++
		case ']', '}', ')':
			depth--
		default:
			if s[i] == sep && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// parseGlobal parses "@name = global TY [volatile] [atomic] [init [...]]".
func (p *moduleParser) parseGlobal(l string, lineNo int) error {
	head, body, ok := strings.Cut(l, "= global")
	if !ok {
		return fmt.Errorf("line %d: bad global %q", lineNo, l)
	}
	g := &Global{GName: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(head), "@"))}
	rest := strings.TrimSpace(body)
	ty, rest, err := p.parseType(rest)
	if err != nil {
		return fmt.Errorf("line %d: %w", lineNo, err)
	}
	g.Elem = ty
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "volatile") {
		g.Volatile = true
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "volatile"))
	}
	if strings.HasPrefix(rest, "atomic") {
		g.Atomic = true
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "atomic"))
	}
	if strings.HasPrefix(rest, "init ") {
		vals := strings.TrimSpace(strings.TrimPrefix(rest, "init"))
		vals = strings.TrimPrefix(vals, "[")
		vals = strings.TrimSuffix(vals, "]")
		for _, v := range strings.Fields(vals) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad init %q", lineNo, v)
			}
			g.Init = append(g.Init, n)
		}
	}
	return p.mod.AddGlobal(g)
}

// parseFuncShell parses the define line and collects raw bodies.
func (p *moduleParser) parseFuncShell(lines []string, i int) (*rawFunc, int, error) {
	l := strings.TrimSpace(lines[i])
	rest := strings.TrimPrefix(l, "define ")
	retTy, rest, err := p.parseType(rest)
	if err != nil {
		return nil, 0, fmt.Errorf("line %d: %w", i+1, err)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "@") {
		return nil, 0, fmt.Errorf("line %d: missing function name", i+1)
	}
	open := strings.Index(rest, "(")
	if open < 0 {
		return nil, 0, fmt.Errorf("line %d: missing parameter list", i+1)
	}
	name := rest[1:open]
	closeIdx := strings.LastIndex(rest, ")")
	if closeIdx < open {
		return nil, 0, fmt.Errorf("line %d: unterminated parameter list", i+1)
	}
	params := rest[open+1 : closeIdx]
	fn := &Func{Name: name, RetTy: retTy}
	if strings.TrimSpace(params) != "" {
		for idx, ps := range splitTopLevel(params, ',') {
			ps = strings.TrimSpace(ps)
			ty, prest, err := p.parseType(ps)
			if err != nil {
				return nil, 0, fmt.Errorf("line %d: %w", i+1, err)
			}
			pname := strings.TrimSpace(prest)
			pname = strings.TrimPrefix(pname, "%")
			fn.Params = append(fn.Params, &Param{PName: pname, Ty: ty, Index: idx})
		}
	}
	rf := &rawFunc{fn: fn, instrs: make(map[*Block][]rawInstr)}
	i++
	var cur *Block
	for i < len(lines) {
		l := lines[i]
		trimmed := strings.TrimSpace(l)
		if trimmed == "}" {
			return rf, i + 1, nil
		}
		if trimmed == "" {
			i++
			continue
		}
		if !strings.HasPrefix(l, "  ") && strings.HasSuffix(trimmed, ":") {
			cur = fn.NewBlock(strings.TrimSuffix(trimmed, ":"))
			rf.blocks = append(rf.blocks, cur)
			i++
			continue
		}
		if cur == nil {
			return nil, 0, fmt.Errorf("line %d: instruction before first label", i+1)
		}
		ri := rawInstr{line: i + 1, result: -1, text: trimmed}
		if strings.HasPrefix(trimmed, "%t") {
			eq := strings.Index(trimmed, " = ")
			if eq < 0 {
				return nil, 0, fmt.Errorf("line %d: bad result assignment", i+1)
			}
			id, err := strconv.Atoi(trimmed[2:eq])
			if err != nil {
				return nil, 0, fmt.Errorf("line %d: bad register %q", i+1, trimmed[:eq])
			}
			ri.result = id
			ri.text = trimmed[eq+3:]
		}
		rf.instrs[cur] = append(rf.instrs[cur], ri)
		i++
	}
	return nil, 0, fmt.Errorf("line %d: unterminated function @%s", i, name)
}
