package analysis

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/minic"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	res, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Module
}

func TestDominators(t *testing.T) {
	m := compile(t, `
int g;
int f(int n) {
  int r = 0;
  while (n > 0) {
    if (g > 0) { r = r + 1; } else { r = r + 2; }
    n = n - 1;
  }
  return r;
}
`)
	f := m.Func("f")
	dom := Dominators(f)
	entry := f.Entry()
	for _, b := range f.Blocks {
		if dom.Reachable(b) && !dom.Dominates(entry, b) {
			t.Errorf("entry does not dominate %s", b.Name)
		}
	}
	// The loop condition block dominates the loop body and the then/else
	// blocks; find them by structure: the block with a conditional branch
	// whose Else exits.
	loops := FindLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	for b := range l.Blocks {
		if !dom.Dominates(l.Header, b) {
			t.Errorf("loop header does not dominate member %s", b.Name)
		}
	}
}

func TestFindLoopsNested(t *testing.T) {
	m := compile(t, `
int g;
void f(void) {
  for (int i = 0; i < 10; i = i + 1) {
    for (int j = 0; j < 10; j = j + 1) {
      g = g + 1;
    }
  }
}
`)
	f := m.Func("f")
	loops := FindLoops(f, Dominators(f))
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	// One loop body must be a strict subset of the other.
	a, b := loops[0], loops[1]
	if len(a.Blocks) > len(b.Blocks) {
		a, b = b, a
	}
	for blk := range a.Blocks {
		if !b.Blocks[blk] {
			t.Fatalf("inner loop block %s not inside outer loop", blk.Name)
		}
	}
	if len(a.ExitBranches) == 0 || len(b.ExitBranches) == 0 {
		t.Fatal("loops missing exit branches")
	}
}

func TestLocalityGlobalsAndParams(t *testing.T) {
	m := compile(t, `
int g;
int f(int *p) {
  int l = 0;
  l = g;
  l = *p;
  return l;
}
`)
	f := m.Func("f")
	loc := AnalyzeLocality(f)
	var loads []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad {
			loads = append(loads, in)
		}
	})
	nonLocal := 0
	for _, ld := range loads {
		if loc.NonLocal(ld.Args[0]) {
			nonLocal++
		}
	}
	// Non-local loads: the load of @g and the load through *p. The loads
	// of l and of the parameter slot are local.
	if nonLocal != 2 {
		t.Fatalf("non-local loads = %d, want 2", nonLocal)
	}
}

func TestLocalityEscape(t *testing.T) {
	cases := []struct {
		src, fn string
		escapes []bool // per alloca, in layout order
	}{
		{`
int *shared;
void publish(void) {
  int l = 1;
  shared = &l;     // l escapes
  int kept = 2;
  kept = kept + 1; // kept does not escape
}
`, "publish", []bool{true, false}},
		// An xchg writes its operand like a store: &flag lands in box,
		// whose address has escaped, so flag escapes too.
		{xchgEscapeSrc, "waiter", []bool{true, true}},
	}
	for _, c := range cases {
		f := compile(t, c.src).Func(c.fn)
		loc := AnalyzeLocality(f)
		var escapes []bool
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpAlloca {
				escapes = append(escapes, loc.Escaped(in))
			}
		})
		if fmt.Sprint(escapes) != fmt.Sprint(c.escapes) {
			t.Errorf("@%s: alloca escapes = %v, want %v", c.fn, escapes, c.escapes)
		}
	}
}

func TestLocalityEscapeViaCall(t *testing.T) {
	m := compile(t, `
void sink(int *p) { *p = 1; }
void f(void) {
  int l = 0;
  sink(&l);
}
`)
	f := m.Func("f")
	loc := AnalyzeLocality(f)
	var a *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca && a == nil {
			a = in
		}
	})
	if !loc.Escaped(a) {
		t.Error("address passed to call should escape")
	}
}

// TestFigure3 reproduces the paper's Figure 3: three spinloops and two
// non-spinloops.
func TestFigure3(t *testing.T) {
	m := compile(t, `
int flag = 0;
int turns = 7;

void spinloop1(void) {
  while (flag != 1) { }        // non-local dep: spinloop
}

void spinloop2(void) {
  int l_flag;
  do {
    l_flag = 1;                // constant store
  } while (l_flag != flag);    // non-local dep: spinloop
}

void spinloop3(void) {
  int l_flag;
  do {
    l_flag = flag & 255;       // non-local dep flows through local
  } while (l_flag != 2);       // indirect non-local dep: spinloop
}

void nonspin1(void) {
  for (int i = 0; i < 100; i = i + 1) {
    if (flag == 1) { break; }  // also has a purely local exit
  }
}

void nonspin2(void) {
  for (int i = 0; i < turns; i = i + 1) { }  // i++ influences exit
}
`)
	cases := []struct {
		fn   string
		want int
	}{
		{"spinloop1", 1},
		{"spinloop2", 1},
		{"spinloop3", 1},
		{"nonspin1", 0},
		{"nonspin2", 0},
	}
	for _, c := range cases {
		t.Run(c.fn, func(t *testing.T) {
			infos := DetectSpinloops(m.Func(c.fn))
			if len(infos) != c.want {
				t.Fatalf("spinloops in %s = %d, want %d", c.fn, len(infos), c.want)
			}
			if c.want == 1 {
				info := infos[0]
				if len(info.Controls) == 0 {
					t.Fatal("spinloop without spin controls")
				}
				for _, ctl := range info.Controls {
					loc := alias.LocOf(ctl.Addr())
					if loc.Kind != alias.LocGlobal || loc.Name != "flag" {
						t.Errorf("control loc = %v, want @flag", loc)
					}
				}
				if info.Optimistic {
					t.Error("plain spinloop misclassified as optimistic")
				}
			}
		})
	}
}

func TestSpinloopCASLock(t *testing.T) {
	// Figure 4: test-and-set lock. The cmpxchg is the spin control.
	m := compile(t, `
int locked = 0;
void lock(void) {
  while (__cas(&locked, 0, 1) != 0) { }
}
`)
	infos := DetectSpinloops(m.Func("lock"))
	if len(infos) != 1 {
		t.Fatalf("spinloops = %d, want 1", len(infos))
	}
	ctl := infos[0].Controls
	if len(ctl) != 1 || ctl[0].Op != ir.OpCmpXchg {
		t.Fatalf("controls = %v, want the cmpxchg", ctl)
	}
}

func TestOptimisticSeqlock(t *testing.T) {
	// Figure 6: sequence counter. The loop reads msg (not a spin
	// control) and uses it after the loop, so the loop is optimistic.
	m := compile(t, `
volatile int flag = 0;
int msg;
int out;

void reader(void) {
  int i;
  int data;
  do {
    i = flag;
    data = msg;
  } while (i % 2 != 0 || i != flag);
  out = data;
}
`)
	infos := DetectSpinloops(m.Func("reader"))
	if len(infos) != 1 {
		t.Fatalf("spinloops = %d, want 1", len(infos))
	}
	info := infos[0]
	if !info.Optimistic {
		t.Fatal("seqlock reader not classified optimistic")
	}
	if len(info.OptimisticReads) == 0 {
		t.Fatal("no optimistic reads recorded")
	}
	for _, rd := range info.OptimisticReads {
		if loc := alias.LocOf(rd.Addr()); loc.Name != "msg" {
			t.Errorf("optimistic read loc = %v, want @msg", loc)
		}
	}
	seenFlag := false
	for _, loc := range info.ControlLocs {
		if loc.Name == "flag" {
			seenFlag = true
		}
	}
	if !seenFlag {
		t.Errorf("control locs = %v, want @flag", info.ControlLocs)
	}
}

func TestMessagePassingReaderNotOptimistic(t *testing.T) {
	// Figure 5: the msg read happens after the loop, so the loop is a
	// plain spinloop, not an optimistic loop.
	m := compile(t, `
int flag = 0;
int msg;
int out;
void reader(void) {
  while (flag != 1) { }
  out = msg;
}
`)
	infos := DetectSpinloops(m.Func("reader"))
	if len(infos) != 1 {
		t.Fatalf("spinloops = %d, want 1", len(infos))
	}
	if infos[0].Optimistic {
		t.Fatal("MP reader misclassified as optimistic")
	}
}

func TestSpinloopThroughPointer(t *testing.T) {
	// MCS-style: spin on a field of a node reached through a pointer.
	m := compile(t, `
struct node { int locked; struct node *next; };
void waitfor(struct node *n) {
  while (n->locked != 0) { }
}
`)
	infos := DetectSpinloops(m.Func("waitfor"))
	if len(infos) != 1 {
		t.Fatalf("spinloops = %d, want 1", len(infos))
	}
	locs := infos[0].ControlLocs
	if len(locs) != 1 || locs[0].Kind != alias.LocField || locs[0].Name != "node:0" {
		t.Fatalf("control locs = %v, want %%node:0", locs)
	}
}

func TestBoundedRetryLoopIsNotSpin(t *testing.T) {
	m := compile(t, `
int flag;
int tries(void) {
  int i = 0;
  while (i < 1000) {
    if (flag == 1) { return 1; }
    i = i + 1;
  }
  return 0;
}
`)
	if infos := DetectSpinloops(m.Func("tries")); len(infos) != 0 {
		t.Fatalf("bounded retry loop classified as spinloop: %d", len(infos))
	}
}

func TestConstantValue(t *testing.T) {
	if !ConstantValue(ir.Const(3)) {
		t.Error("literal not constant")
	}
	m := ir.NewModule("t")
	f := &ir.Func{Name: "f", RetTy: ir.Void}
	if err := m.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	add := b.Bin(ir.Add, ir.Const(1), ir.Const(2))
	g := &ir.Global{GName: "g", Elem: ir.I64}
	if err := m.AddGlobal(g); err != nil {
		t.Fatal(err)
	}
	ld := b.Load(g)
	mix := b.Bin(ir.Add, add, ld)
	b.Ret(nil)
	if !ConstantValue(add) {
		t.Error("const arithmetic not constant")
	}
	if ConstantValue(ld) || ConstantValue(mix) {
		t.Error("load treated as constant")
	}
}

func TestInlineMergesLoops(t *testing.T) {
	// The spin load lives in a helper; without inlining the caller's
	// loop has no visible non-local dependency.
	src := `
int flag;
int read_flag(void) { return flag; }
void waiter(void) {
  while (read_flag() != 1) { }
}
`
	m := compile(t, src)
	if infos := DetectSpinloops(m.Func("waiter")); len(infos) != 0 {
		t.Fatalf("pre-inline detection found %d spinloops, want 0", len(infos))
	}
	n := Inline(m)
	if n == 0 {
		t.Fatal("nothing inlined")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("post-inline module invalid: %v", err)
	}
	infos := DetectSpinloops(m.Func("waiter"))
	if len(infos) != 1 {
		t.Fatalf("post-inline spinloops = %d, want 1", len(infos))
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	m := compile(t, `
int fac(int n) {
  if (n <= 1) { return 1; }
  return n * fac(n - 1);
}
int use(void) { return fac(5); }
`)
	Inline(m)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// The recursive call must still exist inside fac.
	recCall := false
	m.Func("fac").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee == "fac" {
			recCall = true
		}
	})
	if !recCall {
		t.Fatal("recursive function was inlined")
	}
}

func TestInlinePreservesSemantics(t *testing.T) {
	// Structural check: after inlining, the caller contains the callee's
	// arithmetic and no call.
	m := compile(t, `
int add3(int a, int b, int c) { return a + b + c; }
int caller(void) { return add3(1, 2, 3); }
`)
	Inline(m)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	called := false
	m.Func("caller").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee == "add3" {
			called = true
		}
	})
	if called {
		t.Fatal("call survived inlining")
	}
}

func TestAliasMapBuddies(t *testing.T) {
	m := compile(t, `
struct node { int state; int *key; };
struct node pool[4];
int flag;

void a(struct node *n) { n->state = 1; }
int b(void) { return pool[2].state; }
int c(void) { return flag; }
void d(void) { flag = 9; }
`)
	am := alias.BuildMap(m)
	// All node:0 accesses alias (pointer-based and array-based).
	var stateAccess *ir.Instr
	m.Func("a").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && alias.LocOf(in.Addr()).Kind == alias.LocField {
			stateAccess = in
		}
	})
	if stateAccess == nil {
		t.Fatal("no field store found")
	}
	buddies := am.Explore([]*ir.Instr{stateAccess})
	if len(buddies) != 2 {
		t.Fatalf("node:0 buddies = %d, want 2 (store in a, load in b)", len(buddies))
	}
	// Global flag accesses alias across functions.
	var flagLoad *ir.Instr
	m.Func("c").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && alias.LocOf(in.Addr()).Kind == alias.LocGlobal {
			flagLoad = in
		}
	})
	buddies = am.Explore([]*ir.Instr{flagLoad})
	if len(buddies) != 2 {
		t.Fatalf("@flag buddies = %d, want 2", len(buddies))
	}
}
