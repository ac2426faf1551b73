package ir

import (
	"slices"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, m *Module) *Module {
	t.Helper()
	text := m.String()
	parsed, err := ParseModule(text)
	if err != nil {
		t.Fatalf("ParseModule: %v\n--- input\n%s", err, text)
	}
	again := parsed.String()
	if again != text {
		t.Fatalf("round trip not stable:\n--- first\n%s\n--- second\n%s", text, again)
	}
	return parsed
}

func TestParseRoundTripSpinModule(t *testing.T) {
	m := buildSpinModule(t)
	roundTrip(t, m)
}

func TestParseRoundTripRichModule(t *testing.T) {
	m := NewModule("rich")
	node := &StructType{TypeName: "node", Fields: []Field{
		{Name: "state", Type: I64, Volatile: true},
		{Name: "vals", Type: &ArrayType{Elem: I64, Len: 4}},
		{Name: "next", Type: nil}, // patched below (self-reference)
	}}
	node.Fields[2].Type = PointerTo(node)
	if err := m.AddStruct(node); err != nil {
		t.Fatal(err)
	}
	if err := m.AddGlobal(&Global{GName: "pool", Elem: &ArrayType{Elem: node, Len: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddGlobal(&Global{GName: "cnt", Elem: I64, Atomic: true, Init: []int64{5}}); err != nil {
		t.Fatal(err)
	}
	f := &Func{Name: "touch", RetTy: I64, Params: []*Param{
		{PName: "p", Ty: PointerTo(node), Index: 0},
		{PName: "k", Ty: I64, Index: 1},
	}}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f)
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	slot := b.Alloca(I64)
	b.Store(slot, f.Params[1])
	b.Br(loop)
	b.SetBlock(loop)
	sp := b.FieldPtr(f.Params[0], node, "state")
	ld := b.LoadOrd(sp, SeqCst)
	ld.SetMark(MarkSpinControl)
	ld.SetMark(MarkOptControl)
	fence := b.Fence(SeqCst)
	fence.SetMark(MarkInsertedFence)
	vp := b.GEP(f.Params[0], node, []GEPStep{{Field: 1}, {Field: -1}}, f.Params[1])
	vl := b.Load(vp)
	vl.Volatile = true
	cas := b.CmpXchg(m.Global("cnt"), Const(5), Const(9), AcqRel)
	rmw := b.RMW(RMWAdd, m.Global("cnt"), Const(1), SeqCst)
	sum := b.Bin(Add, vl, cas)
	sum2 := b.Bin(Xor, sum, rmw)
	cond := b.ICmp(GE, sum2, Const(0))
	b.CondBr(cond, exit, loop)
	b.SetBlock(exit)
	b.Call(Void, "print", sum2)
	c := b.Call(I64, "tid")
	b.Ret(c)

	parsed := roundTrip(t, m)
	// Structural spot checks.
	pf := parsed.Func("touch")
	if pf == nil || len(pf.Params) != 2 {
		t.Fatal("function signature lost")
	}
	if !parsed.Structs["node"].Fields[0].Volatile {
		t.Fatal("field qualifier lost")
	}
	if got := parsed.Global("cnt").Init; len(got) != 1 || got[0] != 5 {
		t.Fatal("global init lost")
	}
	var foundSpin, foundFence bool
	pf.Instrs(func(in *Instr) {
		if in.HasMark(MarkSpinControl) && in.HasMark(MarkOptControl) {
			foundSpin = true
		}
		if in.Op == OpFence && in.HasMark(MarkInsertedFence) {
			foundFence = true
		}
	})
	if !foundSpin || !foundFence {
		t.Fatal("marks lost in round trip")
	}
}

// TestMarksRoundTrip pins that every defined mark parses back under
// the name it prints — a mark missing from markByName makes dumped
// modules (e.g. atomig -O output, which stamps MarkWeakened)
// unreadable by the rest of the toolchain.
func TestMarksRoundTrip(t *testing.T) {
	for bit := Mark(1); bit <= MarkWeakened; bit <<= 1 {
		name := bit.String()
		if name == "" {
			t.Fatalf("mark bit %#x has no printed name", bit)
		}
		var in Instr
		if err := (&funcResolver{}).parseMarks(&in, "["+name+"]"); err != nil {
			t.Fatalf("mark %q does not parse back: %v", name, err)
		}
		if !in.HasMark(bit) {
			t.Fatalf("mark %q parsed to %#x, want %#x", name, in.Marks, bit)
		}
	}
}

// TestNumberUnnamedMatchesParse: a built function numbered by
// NumberUnnamed carries the IDs and watermark its parsed text does. The
// spin module's void branches and stores sit before, between and after
// its named loads, and writer names nothing, so it numbers from 1.
func TestNumberUnnamedMatchesParse(t *testing.T) {
	m := buildSpinModule(t)
	for _, f := range m.Funcs {
		f.NumberUnnamed()
	}
	parsed := roundTrip(t, m)
	for _, f := range m.Funcs {
		pf := parsed.Func(f.Name)
		var got, want []int
		f.Instrs(func(in *Instr) { got = append(got, in.ID) })
		pf.Instrs(func(in *Instr) { want = append(want, in.ID) })
		if !slices.Equal(got, want) || f.NumIDs() != pf.NumIDs() {
			t.Errorf("@%s: IDs %v watermark %d, parsed %v watermark %d", f.Name, got, f.NumIDs(), want, pf.NumIDs())
		}
	}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify after numbering: %v", err)
	}
}

func TestParseRoundTripSpawn(t *testing.T) {
	m := NewModule("spawnmod")
	w := &Func{Name: "worker", RetTy: Void}
	if err := m.AddFunc(w); err != nil {
		t.Fatal(err)
	}
	wb := NewBuilder(w)
	wb.Ret(nil)
	f := &Func{Name: "main_thread", RetTy: Void}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f)
	b.Call(Void, "spawn", &FuncRef{Name: w.Name})
	b.Call(Void, "join")
	b.Ret(nil)
	parsed := roundTrip(t, m)
	var ref *FuncRef
	parsed.Func("main_thread").Instrs(func(in *Instr) {
		if in.Op == OpCall && in.Callee == "spawn" {
			ref, _ = in.Args[0].(*FuncRef)
		}
	})
	if ref == nil || ref.Name != "worker" {
		t.Fatal("FuncRef operand lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"garbage", "wibble"},
		{"unknown struct ref", "@g = global %nope\n"},
		{"unknown opcode", "define void @f() {\nentry:\n  frobnicate 1\n}\n"},
		{"unknown operand", "define void @f() {\nentry:\n  ret %t99\n}\n"},
		{"unterminated func", "define void @f() {\nentry:\n  ret void\n"},
		{"branch to nowhere", "define void @f() {\nentry:\n  br label %missing\n}\n"},
		{"bad mark", "define void @f() {\nentry:\n  fence seq_cst ; [wat]\n  ret void\n}\n"},
		{"dup register", "define void @f() {\nentry:\n  %t0 = add 1, 2\n  %t0 = add 1, 2\n  ret void\n}\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseModule(c.text); err == nil {
				t.Fatalf("accepted %q", c.text)
			}
		})
	}
}

func TestParseMinimal(t *testing.T) {
	m, err := ParseModule(`; module tiny
@x = global i64
define i64 @get() {
entry:
  %t0 = load i64, @x
  ret %t0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "tiny" || m.Func("get") == nil {
		t.Fatal("module structure wrong")
	}
	if !strings.Contains(m.String(), "load i64, @x") {
		t.Fatal("reprint lost content")
	}
}
