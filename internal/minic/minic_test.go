package minic

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func compileOK(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return res
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize(`int x = 42; // comment
/* block */ while (x != 0x10) { x = x - 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	joined := strings.Join(texts, " ")
	want := "int x = 42 ; while ( x != 0x10 ) { x = x - 1 ; }"
	if joined != want {
		t.Fatalf("tokens = %q, want %q", joined, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("int x = $;"); err == nil {
		t.Error("accepted bad character")
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Error("accepted unterminated comment")
	}
	if _, err := Tokenize(`__asm__("unterminated`); err == nil {
		t.Error("accepted unterminated string")
	}
}

func TestCompileMessagePassing(t *testing.T) {
	res := compileOK(t, `
int flag;
int msg;

void writer(void) {
  msg = 42;
  flag = 1;
}

int reader(void) {
  while (flag == 0) { }
  return msg;
}
`)
	m := res.Module
	if m.Global("flag") == nil || m.Global("msg") == nil {
		t.Fatal("globals missing")
	}
	r := m.Func("reader")
	if r == nil {
		t.Fatal("reader missing")
	}
	// The reader must contain a loop: a block branching to itself or a
	// cond block cycle.
	if len(r.Blocks) < 3 {
		t.Fatalf("reader has %d blocks, expected a loop structure", len(r.Blocks))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestCompileStructsAndPointers(t *testing.T) {
	res := compileOK(t, `
struct node {
  int state;
  volatile int seq;
  int *key;
  struct node *next;
};

struct node nodes[4];
struct node *head;

int probe(struct node *n, int i) {
  int s = n->state;
  int q = nodes[i].seq;
  int *k = n->key;
  head = n->next;
  return s + q + *k;
}
`)
	m := res.Module
	st := m.Structs["node"]
	if st == nil {
		t.Fatal("struct node missing")
	}
	if st.FieldIndex("next") != 3 {
		t.Fatalf("field order wrong: %v", st.Fields)
	}
	if !st.Fields[1].Volatile {
		t.Fatal("volatile qualifier lost on field seq")
	}
	if res.Stats.VolatileDecls != 1 {
		t.Fatalf("VolatileDecls = %d, want 1", res.Stats.VolatileDecls)
	}
	// Loading nodes[i].seq must produce a volatile load.
	var volLoads int
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.Op == ir.OpLoad && in.Volatile {
			volLoads++
		}
	})
	if volLoads != 1 {
		t.Fatalf("volatile loads = %d, want 1", volLoads)
	}
}

func TestCompileAtomicQualifier(t *testing.T) {
	res := compileOK(t, `
_Atomic int cnt;
int bump(void) {
  cnt = cnt + 1;
  return cnt;
}
`)
	var scLoads, scStores int
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		switch in.Op {
		case ir.OpLoad:
			if in.Ord == ir.SeqCst {
				scLoads++
			}
		case ir.OpStore:
			if in.Ord == ir.SeqCst {
				scStores++
			}
		}
	})
	if scLoads != 2 || scStores != 1 {
		t.Fatalf("sc loads/stores = %d/%d, want 2/1", scLoads, scStores)
	}
}

func TestCompileAtomicBuiltins(t *testing.T) {
	res := compileOK(t, `
int locked;
void lock(void) {
  while (__cas(&locked, 0, 1) != 0) { }
}
void unlock(void) {
  locked = 0;
}
int rmws(void) {
  int a = __faa(&locked, 1);
  int b = __fas(&locked, 1);
  int c = __xchg(&locked, 7);
  int d = __load_acq(&locked);
  __store_rel(&locked, 0);
  __fence();
  return a + b + c + d;
}
`)
	counts := map[ir.Op]int{}
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) { counts[in.Op]++ })
	if counts[ir.OpCmpXchg] != 1 {
		t.Errorf("cmpxchg count = %d", counts[ir.OpCmpXchg])
	}
	if counts[ir.OpRMW] != 3 {
		t.Errorf("rmw count = %d", counts[ir.OpRMW])
	}
	if counts[ir.OpFence] != 1 {
		t.Errorf("fence count = %d", counts[ir.OpFence])
	}
	var cas *ir.Instr
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.Op == ir.OpCmpXchg {
			cas = in
		}
	})
	if cas.Ord != ir.AcqRel {
		t.Errorf("cmpxchg ordering = %s, want acq_rel", cas.Ord)
	}
}

func TestCompileInlineAsm(t *testing.T) {
	res := compileOK(t, `
void barriers(void) {
  __asm__("mfence");
  __asm__("lock; addl $0,0(%%rsp)");
  __asm__("pause");
  __asm__("lfence");
  __asm__("sfence");
  __asm__("cpuid");
}
`)
	if res.Stats.AsmMapped != 5 {
		t.Errorf("AsmMapped = %d, want 5", res.Stats.AsmMapped)
	}
	if res.Stats.AsmOpaque != 1 {
		t.Errorf("AsmOpaque = %d, want 1", res.Stats.AsmOpaque)
	}
	var fences []ir.MemOrder
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.Op == ir.OpFence {
			fences = append(fences, in.Ord)
			if !in.HasMark(ir.MarkFromAsm) {
				t.Error("asm-mapped fence not marked")
			}
		}
	})
	want := []ir.MemOrder{ir.SeqCst, ir.SeqCst, ir.Acquire, ir.Release}
	if len(fences) != len(want) {
		t.Fatalf("fences = %v, want %v", fences, want)
	}
	for i := range want {
		if fences[i] != want[i] {
			t.Errorf("fence %d = %s, want %s", i, fences[i], want[i])
		}
	}
}

func TestCompileControlFlow(t *testing.T) {
	res := compileOK(t, `
int g;
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) {
      n = n / 2;
    } else {
      n = 3 * n + 1;
    }
    steps = steps + 1;
    if (steps > 1000) { break; }
  }
  for (int i = 0; i < 3; i = i + 1) {
    if (i == 1) { continue; }
    g = g + i;
  }
  do { g = g - 1; } while (g > 100);
  return steps;
}
`)
	if err := ir.Verify(res.Module); err != nil {
		t.Fatal(err)
	}
}

func TestCompileShortCircuit(t *testing.T) {
	res := compileOK(t, `
struct node { int x; };
struct node *p;
int safe(void) {
  if (p != 0 && p->x == 1) { return 1; }
  return 0;
}
`)
	// The p->x load must be control-dependent on the null check: the
	// function needs the short-circuit block structure.
	f := res.Module.Func("safe")
	if len(f.Blocks) < 4 {
		t.Fatalf("short-circuit produced only %d blocks", len(f.Blocks))
	}
}

func TestCompileMallocAndCast(t *testing.T) {
	res := compileOK(t, `
struct node { int v; struct node *next; };
struct node *mk(void) {
  struct node *n = malloc(sizeof(struct node));
  n->v = 7;
  n->next = (struct node *)0;
  return n;
}
`)
	var mallocCall *ir.Instr
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee == "malloc" {
			mallocCall = in
		}
	})
	if mallocCall == nil {
		t.Fatal("no malloc call")
	}
	pt, ok := mallocCall.Type().(*ir.PtrType)
	if !ok {
		t.Fatalf("malloc result type = %s", mallocCall.Type())
	}
	if st, ok := pt.Elem.(*ir.StructType); !ok || st.TypeName != "node" {
		t.Fatalf("malloc result pointee = %s, want %%node", pt.Elem)
	}
	// sizeof(struct node) is 2 cells.
	if c, ok := mallocCall.Args[0].(*ir.ConstInt); !ok || c.V != 2 {
		t.Fatalf("malloc size arg = %v, want 2", mallocCall.Args[0])
	}
}

func TestCompileSpawnHarness(t *testing.T) {
	res := compileOK(t, `
int done;
void worker(void) { done = 1; }
void main_thread(void) {
  spawn(worker);
  join();
  assert(done == 1);
}
`)
	w := res.Module.Func("worker")
	var spawnArg ir.Value
	res.Module.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee == "spawn" {
			spawnArg = in.Args[0]
		}
	})
	if fr, ok := spawnArg.(*ir.FuncRef); !ok || fr.Fn != w {
		t.Fatalf("spawn argument = %#v", spawnArg)
	}
}

func TestCompileGlobalInitializers(t *testing.T) {
	res := compileOK(t, `
int a = 5;
int b = -3;
int c = 1 << 4;
int arr[4] = {1, 2, 3, 4};
`)
	m := res.Module
	if got := m.Global("a").Init; len(got) != 1 || got[0] != 5 {
		t.Errorf("a init = %v", got)
	}
	if got := m.Global("b").Init; got[0] != -3 {
		t.Errorf("b init = %v", got)
	}
	if got := m.Global("c").Init; got[0] != 16 {
		t.Errorf("c init = %v", got)
	}
	if got := m.Global("arr").Init; len(got) != 4 || got[3] != 4 {
		t.Errorf("arr init = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", `int f(void) { return nope; }`, "undefined variable"},
		{"undefined func", `int f(void) { return g(); }`, "undefined function"},
		{"bad field", `struct s { int a; }; struct s v; int f(void) { return v.b; }`, "no field"},
		{"arrow on int", `int x; int f(void) { return x->y; }`, "non-struct-pointer"},
		{"break outside", `int f(void) { break; return 0; }`, "break outside loop"},
		{"arity", `void g(int a) { } void f(void) { g(1, 2); }`, "argument"},
		{"dup global", "int x; int x;", "duplicate global"},
		{"dup struct", "struct s { int a; }; struct s { int b; };", "duplicate struct"},
		{"non-const init", "int x; int y = x;", "not a constant"},
		{"unknown struct", "struct nope *p;", "unknown struct"},
		{"spawn non-func", "void f(void) { spawn(42); }", "must name a function"},
		{"assign to call", "void g(void) {} void f(void) { g() = 1; }", "not assignable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("t", c.src)
			if err == nil {
				t.Fatalf("compile accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParserRecoversPositions(t *testing.T) {
	_, err := Compile("t", "int x;\nint f(void) {\n  return $;\n}\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error = %v, want line 3 mention", err)
	}
}

// Property: the lexer never loses or duplicates identifier tokens for
// well-formed identifier/number streams.
func TestLexerRoundTripProperty(t *testing.T) {
	prop := func(words []uint16) bool {
		var sb strings.Builder
		var want []string
		for _, w := range words {
			id := "v" + string(rune('a'+int(w%26)))
			want = append(want, id)
			sb.WriteString(id)
			sb.WriteString(" ")
		}
		toks, err := Tokenize(sb.String())
		if err != nil || len(toks) != len(want) {
			return false
		}
		for i, tk := range toks {
			if tk.Text != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: compiled straight-line arithmetic functions always verify.
func TestCompileArithProperty(t *testing.T) {
	ops := []string{"+", "-", "*", "&", "|", "^"}
	prop := func(seq []uint8) bool {
		if len(seq) > 12 {
			seq = seq[:12]
		}
		var sb strings.Builder
		sb.WriteString("int f(int a, int b) {\n int r = a;\n")
		for _, s := range seq {
			op := ops[int(s)%len(ops)]
			sb.WriteString(" r = r " + op + " b;\n")
		}
		sb.WriteString(" return r;\n}\n")
		res, err := Compile("p", sb.String())
		if err != nil {
			return false
		}
		return ir.Verify(res.Module) == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceLineCount(t *testing.T) {
	res := compileOK(t, "int x;\n\nint f(void) {\n  return x;\n}\n")
	if res.Stats.SourceLines != 4 {
		t.Fatalf("SourceLines = %d, want 4", res.Stats.SourceLines)
	}
}

func TestPrototypes(t *testing.T) {
	// Prototype before use, definition later.
	compileOK(t, `
int helper(int x);
int user(void) { return helper(2); }
int helper(int x) { return x * 3; }
`)
	// Prototype after definition is also fine.
	compileOK(t, `
int f(void) { return 1; }
int f(void);
`)
	// Arity mismatch between prototype and definition.
	if _, err := Compile("t", `
int f(int a);
int f(int a, int b) { return a + b; }
`); err == nil || !strings.Contains(err.Error(), "prototype") {
		t.Fatalf("arity mismatch accepted: %v", err)
	}
	// Declared but never defined.
	if _, err := Compile("t", `int ghost(int a);`); err == nil ||
		!strings.Contains(err.Error(), "never defined") {
		t.Fatalf("undefined prototype accepted: %v", err)
	}
	// Two definitions.
	if _, err := Compile("t", `
int f(void) { return 1; }
int f(void) { return 2; }
`); err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Fatalf("duplicate definition accepted: %v", err)
	}
}
