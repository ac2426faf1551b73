package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildSpinModule constructs the message-passing reader/writer module used
// across the IR tests: a global flag and msg, a reader that spins on flag
// and reads msg, and a writer that stores msg then flag.
func buildSpinModule(t *testing.T) *Module {
	t.Helper()
	m := NewModule("mp")
	flag := &Global{GName: "flag", Elem: I64}
	msg := &Global{GName: "msg", Elem: I64}
	if err := m.AddGlobal(flag); err != nil {
		t.Fatal(err)
	}
	if err := m.AddGlobal(msg); err != nil {
		t.Fatal(err)
	}

	reader := &Func{Name: "reader", RetTy: I64}
	if err := m.AddFunc(reader); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(reader)
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	fv := b.Load(flag)
	cond := b.ICmp(EQ, fv, Const(0))
	b.CondBr(cond, loop, exit)
	b.SetBlock(exit)
	mv := b.Load(msg)
	b.Ret(mv)

	writer := &Func{Name: "writer", RetTy: Void}
	if err := m.AddFunc(writer); err != nil {
		t.Fatal(err)
	}
	w := NewBuilder(writer)
	w.Store(msg, Const(42))
	w.Store(flag, Const(1))
	w.Ret(nil)
	return m
}

func TestVerifyWellFormed(t *testing.T) {
	m := buildSpinModule(t)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := &Func{Name: "f", RetTy: Void}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f)
	b.Bin(Add, Const(1), Const(2)) // no terminator
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted unterminated block")
	}
}

func TestVerifyCatchesUnknownCallee(t *testing.T) {
	m := NewModule("bad")
	f := &Func{Name: "f", RetTy: Void}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f)
	b.Call(Void, "no_such_function")
	b.Ret(nil)
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted call to unknown function")
	}
}

// TestVerifyCatchesDuplicateIDs: a repeated instruction ID is rejected
// whether it lies below the function's ID watermark or not (hand-built
// IR may carry any ID), the first repeat in block order is the one
// named, and distinct IDs on either side of the watermark pass.
func TestVerifyCatchesDuplicateIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int // IDs for the function's first instructions; -1 keeps one
		want string
	}{
		{"distinct", []int{-1, 1000, -7}, ""},
		{"below the watermark", []int{-1, 0}, "duplicate instruction id %t0"},
		{"above the watermark", []int{1000, -1, 1000}, "duplicate instruction id %t1000"},
		{"negative", []int{-5, -5}, "duplicate instruction id %t-5"},
		{"map repeat first", []int{1000, 1000, 3}, "duplicate instruction id %t1000"},
		{"slice repeat first", []int{3, 3, 1000, 1000}, "duplicate instruction id %t3"},
	} {
		m := NewModule("dup")
		f := &Func{Name: "f", RetTy: Void}
		if err := m.AddFunc(f); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(f)
		for i := 0; i < 4; i++ {
			b.Bin(Add, Const(1), Const(2))
		}
		b.Ret(nil)
		for i, id := range tc.ids {
			if id != -1 {
				f.Blocks[0].Instrs[i].ID = id
			}
		}
		err := Verify(m)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Verify rejected distinct IDs: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Verify = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestVerifyCatchesDanglingReferences: a spawn of a removed function
// and a call that does not match its callee's signature are rejected
// by name, before the cloner resolves the reference or the inliner
// maps arguments to parameters and the result to a return slot.
func TestVerifyCatchesDanglingReferences(t *testing.T) {
	m, err := ParseModule(`@g = global i64

define i64 @leaf(i64 %a) {
entry:
  ret %a
}

define void @worker() {
entry:
  %t0 = call i64 @leaf(1)
  store %t0, @g
  ret void
}

define void @main_thread() {
entry:
  call void @spawn(@worker)
  ret void
}
`)
	if err != nil {
		t.Fatal(err)
	}
	removed := m.Derive(m.Funcs)
	removed.RemoveFunc("worker")
	if err := Verify(removed); err == nil || !strings.Contains(err.Error(), "reference to unknown function @worker") {
		t.Errorf("Verify after removing a spawned function: %v, want a reference to unknown function @worker", err)
	}
	f, err := ParseFunc(m, "define i64 @leaf(i64 %a, i64 %b) {\nentry:\n  ret %b\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	widened := m.Derive(m.Funcs)
	widened.ReplaceFuncs(f)
	if err := Verify(widened); err == nil || !strings.Contains(err.Error(), "call to @leaf passes 1 arguments, want 2") {
		t.Errorf("Verify after widening a callee: %v, want an argument-count error", err)
	}
	f, err = ParseFunc(m, "define void @leaf(i64 %a) {\nentry:\n  ret void\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	voided := m.Derive(m.Funcs)
	voided.ReplaceFuncs(f)
	if err := Verify(voided); err == nil || !strings.Contains(err.Error(), "call to @leaf expects i64, the function returns void") {
		t.Errorf("Verify after voiding a callee: %v, want a result-type error", err)
	}
	if err := Verify(m); err != nil {
		t.Errorf("the derived modules' edits reached the original: %v", err)
	}
}

// TestParseFuncAndReplaceFuncs: a delta parsed in a module's context
// may call its functions and spawn ones its batch adds, in either
// order; every reference in the installed copies names a function of
// the module, and the module they were derived from is left as it was.
func TestParseFuncAndReplaceFuncs(t *testing.T) {
	m := buildSpinModule(t)
	before := m.String()
	texts := []string{
		"define void @starter() {\nentry:\n  call void @spawn(@helper)\n  %t1 = call i64 @reader()\n  store %t1, @msg\n  ret void\n}\n",
		"define void @helper() {\nentry:\n  call void @spawn(@helper)\n  call void @writer()\n  ret void\n}\n",
	}
	var fs []*Func
	for _, text := range texts {
		f, err := ParseFunc(m, text)
		if err != nil {
			t.Fatalf("ParseFunc: %v", err)
		}
		fs = append(fs, f)
	}
	next := m.Derive(m.Funcs)
	next.ReplaceFuncs(fs...)
	if err := Verify(next); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := len(next.Funcs); got != 4 || next.Funcs[2].Name != "starter" || next.Funcs[3].Name != "helper" {
		t.Fatalf("functions after the batch: %d, want reader, writer, starter, helper", got)
	}
	next.EachInstr(func(f *Func, in *Instr) {
		for _, a := range in.Args {
			if r, ok := a.(*FuncRef); ok && next.Func(r.Name) == nil {
				t.Errorf("@%s references @%s, which the module lacks", f.Name, r.Name)
			}
		}
	})
	if next.Func("reader") != m.Func("reader") {
		t.Errorf("the derived module copied an unchanged function")
	}
	if m.String() != before || m.Func("starter") != nil {
		t.Errorf("installing the batch changed the module it was derived from")
	}
	for _, bad := range []string{"", "@x = global i64\n", texts[0] + texts[1], "define void @f() {\nentry:\n  %t0 = frob\n}\n"} {
		if _, err := ParseFunc(m, bad); err == nil {
			t.Errorf("ParseFunc accepted %q", bad)
		}
	}
	// An unknown name parses as a function reference, for Verify of the
	// module it lands in to reject.
	f, err := ParseFunc(m, "define void @f() {\nentry:\n  store 1, @nosuch\n  ret void\n}\n")
	if err != nil {
		t.Fatalf("ParseFunc: %v", err)
	}
	next.ReplaceFuncs(f)
	if err := Verify(next); err == nil || !strings.Contains(err.Error(), "reference to unknown function @nosuch") {
		t.Errorf("Verify of an unknown name: %v, want a reference to unknown function @nosuch", err)
	}
}

func TestVerifyAcceptsBuiltins(t *testing.T) {
	m := NewModule("ok")
	f := &Func{Name: "f", RetTy: Void}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f)
	b.Call(Void, "assert", Const(1))
	b.Ret(nil)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify rejected builtin call: %v", err)
	}
}

func TestPrintContainsStructure(t *testing.T) {
	m := buildSpinModule(t)
	s := m.String()
	for _, want := range []string{
		"@flag = global i64",
		"define i64 @reader()",
		"load i64, @flag",
		"br %t2, label %loop, label %exit",
		"store 1, @flag",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("module text missing %q:\n%s", want, s)
		}
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	m := buildSpinModule(t)
	c, err := CloneModule(m)
	if err != nil {
		t.Fatalf("clone failed: %v", err)
	}
	if err := Verify(c); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if got, want := c.String(), m.String(); got != want {
		t.Fatalf("clone prints differently:\n--- original\n%s\n--- clone\n%s", want, got)
	}
	// Mutating the clone must not touch the original.
	c.Func("reader").Entry().Instrs[0].Ord = SeqCst
	cl := c.Func("writer").Blocks[0].Instrs[0]
	cl.Ord = SeqCst
	if m.Func("writer").Blocks[0].Instrs[0].Ord != NotAtomic {
		t.Fatal("mutating clone changed original")
	}
	// Clone operands must point into the clone's globals.
	ld := c.Func("reader").Blocks[1].Instrs[0]
	g, ok := ld.Args[0].(*Global)
	if !ok || g != c.Global("flag") {
		t.Fatal("clone load does not reference clone's global")
	}
}

func TestStructOffsets(t *testing.T) {
	st := &StructType{TypeName: "node", Fields: []Field{
		{Name: "state", Type: I64},
		{Name: "arr", Type: &ArrayType{Elem: I64, Len: 4}},
		{Name: "key", Type: PointerTo(I64)},
	}}
	if got := st.Cells(); got != 6 {
		t.Fatalf("Cells = %d, want 6", got)
	}
	if got := st.FieldOffset(2); got != 5 {
		t.Fatalf("FieldOffset(key) = %d, want 5", got)
	}
	if got := st.FieldIndex("key"); got != 2 {
		t.Fatalf("FieldIndex(key) = %d, want 2", got)
	}
	if got := st.FieldIndex("missing"); got != -1 {
		t.Fatalf("FieldIndex(missing) = %d, want -1", got)
	}
}

func TestTypesEqual(t *testing.T) {
	a := &StructType{TypeName: "n", Fields: []Field{{Name: "x", Type: I64}}}
	b := &StructType{TypeName: "n", Fields: []Field{{Name: "x", Type: I64}}}
	cases := []struct {
		x, y Type
		want bool
	}{
		{I64, I64, true},
		{I64, I32, false},
		{PointerTo(I64), PointerTo(I64), true},
		{PointerTo(I64), PointerTo(I32), false},
		{a, b, true},
		{&ArrayType{Elem: I64, Len: 3}, &ArrayType{Elem: I64, Len: 3}, true},
		{&ArrayType{Elem: I64, Len: 3}, &ArrayType{Elem: I64, Len: 4}, false},
		{Void, Void, true},
		{Void, I64, false},
	}
	for _, c := range cases {
		if got := TypesEqual(c.x, c.y); got != c.want {
			t.Errorf("TypesEqual(%s, %s) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// Property: for any sequence of field sizes, FieldOffset(i) equals the
// sum of sizes of preceding fields, and Cells is the sum of all.
func TestStructOffsetProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		st := &StructType{TypeName: "p"}
		for i, s := range sizes {
			n := int(s%7) + 1
			st.Fields = append(st.Fields, Field{
				Name: string(rune('a' + i%26)),
				Type: &ArrayType{Elem: I64, Len: n},
			})
		}
		sum := 0
		for i, f := range st.Fields {
			if st.FieldOffset(i) != sum {
				return false
			}
			sum += f.Type.Cells()
		}
		return st.Cells() == sum
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: instruction IDs allocated by the builder are strictly
// increasing and unique within a function.
func TestBuilderIDUniquenessProperty(t *testing.T) {
	prop := func(n uint8) bool {
		m := NewModule("p")
		f := &Func{Name: "f", RetTy: Void}
		if err := m.AddFunc(f); err != nil {
			return false
		}
		b := NewBuilder(f)
		count := int(n%50) + 1
		var last *Instr
		for i := 0; i < count; i++ {
			in := b.Bin(Add, Const(int64(i)), Const(1))
			if last != nil && in.ID <= last.ID {
				return false
			}
			last = in
		}
		b.Ret(nil)
		seen := map[int]bool{}
		dup := false
		f.Instrs(func(in *Instr) {
			if seen[in.ID] {
				dup = true
			}
			seen[in.ID] = true
		})
		return !dup
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSuccsAndPreds(t *testing.T) {
	m := buildSpinModule(t)
	reader := m.Func("reader")
	entry, loop, exit := reader.Blocks[0], reader.Blocks[1], reader.Blocks[2]
	if got := entry.Succs(); len(got) != 1 || got[0] != loop {
		t.Fatalf("entry succs = %v", got)
	}
	if got := loop.Succs(); len(got) != 2 || got[0] != loop || got[1] != exit {
		t.Fatalf("loop succs = %v", got)
	}
	preds := reader.Preds()
	if got := preds[loop]; len(got) != 2 {
		t.Fatalf("loop preds = %v, want entry+loop", got)
	}
	if got := preds[exit]; len(got) != 1 || got[0] != loop {
		t.Fatalf("exit preds = %v", got)
	}
}

func TestInstrPredicates(t *testing.T) {
	m := buildSpinModule(t)
	var load, store *Instr
	m.EachInstr(func(_ *Func, in *Instr) {
		switch in.Op {
		case OpLoad:
			if load == nil {
				load = in
			}
		case OpStore:
			if store == nil {
				store = in
			}
		}
	})
	if !load.Reads() || load.Writes() {
		t.Error("load predicates wrong")
	}
	if store.Reads() || !store.Writes() {
		t.Error("store predicates wrong")
	}
	if load.Addr() == nil || store.Addr() == nil {
		t.Error("Addr() nil for memory access")
	}
}

func TestMarks(t *testing.T) {
	in := &Instr{Op: OpLoad}
	if in.HasMark(MarkSpinControl) {
		t.Fatal("fresh instruction has marks")
	}
	in.SetMark(MarkSpinControl)
	in.SetMark(MarkSticky)
	if !in.HasMark(MarkSpinControl) || !in.HasMark(MarkSticky) {
		t.Fatal("marks not set")
	}
	if s := in.Marks.String(); !strings.Contains(s, "spin") || !strings.Contains(s, "sticky") {
		t.Fatalf("marks string = %q", s)
	}
}

// TestModuleReachable: reachability follows direct calls and function
// references, skips functions nothing reaches, and ignores entry names
// the module does not define.
func TestModuleReachable(t *testing.T) {
	m := NewModule("reach")
	fn := func(name string) *Func {
		f := &Func{Name: name, RetTy: Void}
		if err := m.AddFunc(f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	worker, leaf, helper, unused, main := fn("worker"), fn("leaf"), fn("helper"), fn("unused"), fn("main_thread")
	NewBuilder(worker).Ret(nil)
	NewBuilder(leaf).Ret(nil)
	hb := NewBuilder(helper)
	hb.Call(Void, "leaf")
	hb.Ret(nil)
	NewBuilder(unused).Ret(nil)
	b := NewBuilder(main)
	b.Call(Void, "helper")
	b.Call(Void, "spawn", &FuncRef{Name: worker.Name})
	b.Ret(nil)

	got := m.Reachable([]string{"main_thread", "no_such_entry"})
	if len(got) != 4 || !got[main] || !got[helper] || !got[leaf] || !got[worker] || got[unused] {
		t.Fatalf("Reachable = %v, want main_thread, helper, leaf and worker", got)
	}
	if got := m.Reachable([]string{"unused"}); len(got) != 1 || !got[unused] {
		t.Fatalf("Reachable(unused) = %v", got)
	}
}
