package atomig

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/transform"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	res, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Module
}

func port(t *testing.T, m *ir.Module, opts Options) *Report {
	t.Helper()
	rep, err := Port(m, opts)
	if err != nil {
		t.Fatalf("Port: %v", err)
	}
	return rep
}

// accessOrds returns the memory orders of all accesses to the named
// location descriptor.
func accessOrds(m *ir.Module, locName string) []ir.MemOrder {
	var out []ir.MemOrder
	m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
		if !in.IsMemAccess() {
			return
		}
		if alias.LocOf(in.Addr()).Name == locName {
			out = append(out, in.Ord)
		}
	})
	return out
}

// TestFigure4TASLock: porting the test-and-set lock must make both the
// cmpxchg and the unlock store sequentially consistent ("once atomic,
// always atomic").
func TestFigure4TASLock(t *testing.T) {
	m := compile(t, `
int locked = 0;
void lock(void) {
  while (__cas(&locked, 0, 1) != 0) { }
}
void unlock(void) {
  locked = 0;
}
`)
	rep := port(t, m, DefaultOptions())
	if rep.Spinloops != 1 {
		t.Fatalf("spinloops = %d, want 1", rep.Spinloops)
	}
	for i, ord := range accessOrds(m, "locked") {
		if ord != ir.SeqCst {
			t.Errorf("access %d to @locked has order %s, want seq_cst", i, ord)
		}
	}
	// The unlock store must carry the sticky mark (it was reached via
	// alias exploration, not detected directly).
	var unlockStore *ir.Instr
	m.Func("unlock").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			unlockStore = in
		}
	})
	if !unlockStore.HasMark(ir.MarkSticky) {
		t.Error("unlock store missing sticky mark")
	}
}

// TestFigure5MessagePassing: the spinloop flag load and the writer's
// flag store both become SC; msg stays plain (TSO semantics are restored
// by the flag synchronization alone).
func TestFigure5MessagePassing(t *testing.T) {
	m := compile(t, `
int flag = 0;
int msg;
int out;
void reader(void) {
  while (flag != 1) { }
  out = msg;
}
void writer(void) {
  msg = 41;
  flag = 1;
}
`)
	rep := port(t, m, DefaultOptions())
	if rep.Spinloops != 1 || rep.Optiloops != 0 {
		t.Fatalf("spin/opt = %d/%d, want 1/0", rep.Spinloops, rep.Optiloops)
	}
	for i, ord := range accessOrds(m, "flag") {
		if ord != ir.SeqCst {
			t.Errorf("flag access %d order = %s", i, ord)
		}
	}
	for i, ord := range accessOrds(m, "msg") {
		if ord != ir.NotAtomic {
			t.Errorf("msg access %d order = %s, want plain", i, ord)
		}
	}
	if rep.ExplicitAdded != 0 {
		t.Errorf("explicit fences added = %d, want 0", rep.ExplicitAdded)
	}
}

// TestFigure6Seqlock: the optimistic loop produces SC accesses on the
// sequence counter plus explicit fences before in-loop counter reads and
// after counter stores.
func TestFigure6Seqlock(t *testing.T) {
	m := compile(t, `
int flag = 0;
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

void writer(void) {
  flag = flag + 1;
  msg = 42;
  flag = flag + 1;
}
`)
	rep := port(t, m, DefaultOptions())
	if rep.Spinloops != 1 || rep.Optiloops != 1 {
		t.Fatalf("spin/opt = %d/%d, want 1/1", rep.Spinloops, rep.Optiloops)
	}
	for i, ord := range accessOrds(m, "flag") {
		if ord != ir.SeqCst {
			t.Errorf("flag access %d order = %s", i, ord)
		}
	}
	// Reader: each in-loop flag load is preceded by a fence. Two loads
	// in the source (i = flag, i != flag) → at least 2 fences in reader.
	countFences := func(fn string) int {
		n := 0
		m.Func(fn).Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpFence && in.HasMark(ir.MarkInsertedFence) {
				n++
			}
		})
		return n
	}
	if got := countFences("reader"); got != 2 {
		t.Errorf("reader fences = %d, want 2", got)
	}
	// Writer: a fence after each flag store (2 stores).
	if got := countFences("writer"); got != 2 {
		t.Errorf("writer fences = %d, want 2", got)
	}
	// Each writer fence must directly follow a flag store.
	wf := m.Func("writer")
	for _, b := range wf.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpFence && in.HasMark(ir.MarkInsertedFence) {
				if i == 0 || b.Instrs[i-1].Op != ir.OpStore {
					t.Errorf("writer fence not after a store")
				}
			}
		}
	}
}

// TestFigure7LfHash: the MariaDB lock-free hash pattern. The state field
// is the optimistic control; the cmpxchg in l_delete is a store to it
// and must be followed by a fence, protecting the subsequent key store.
func TestFigure7LfHash(t *testing.T) {
	m := compile(t, `
struct node { int state; int *key; };
struct node the_node;
int out;

void l_find(struct node *node) {
  int state;
  int *key;
  do {
    state = node->state;
    key = node->key;
  } while (state != node->state && state == 2);
  assert(key != 0);
}

void l_delete(struct node *node) {
  if (__cas(&node->state, 1, 2) == 1) {
    node->key = 0;
  }
}
`)
	rep := port(t, m, DefaultOptions())
	if rep.Spinloops != 1 {
		t.Fatalf("spinloops = %d, want 1", rep.Spinloops)
	}
	if rep.Optiloops != 1 {
		t.Fatalf("optiloops = %d, want 1", rep.Optiloops)
	}
	// All state accesses SC.
	for i, ord := range accessOrds(m, "node:0") {
		if ord != ir.SeqCst {
			t.Errorf("state access %d order = %s", i, ord)
		}
	}
	// l_delete: fence after the cmpxchg (which writes the optimistic
	// control).
	ld := m.Func("l_delete")
	found := false
	for _, b := range ld.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCmpXchg && i+1 < len(b.Instrs) && b.Instrs[i+1].Op == ir.OpFence {
				found = true
			}
		}
	}
	if !found {
		t.Error("no fence after the state cmpxchg in l_delete")
	}
}

// TestLevels reproduces the structure of Table 2's ablation: the
// explicit level alone does not touch the unannotated spinloop; the spin
// level does.
func TestLevels(t *testing.T) {
	src := `
int flag = 0;
int msg;
int out;
void reader(void) {
  while (flag != 1) { }
  out = msg;
}
void writer(void) { msg = 41; flag = 1; }
`
	mExpl := compile(t, src)
	rep := port(t, mExpl, Options{Level: LevelExplicit})
	if rep.Spinloops != 0 {
		t.Errorf("explicit level detected spinloops")
	}
	for _, ord := range accessOrds(mExpl, "flag") {
		if ord != ir.NotAtomic {
			t.Errorf("explicit level transformed unannotated flag access")
		}
	}
	mSpin := compile(t, src)
	rep = port(t, mSpin, Options{Level: LevelSpin, Inline: true})
	if rep.Spinloops != 1 {
		t.Errorf("spin level found %d spinloops", rep.Spinloops)
	}
	for _, ord := range accessOrds(mSpin, "flag") {
		if ord != ir.SeqCst {
			t.Errorf("spin level left flag access plain")
		}
	}
}

// TestVolatileSeeding: a volatile global access becomes SC at the
// explicit level, and alias exploration then also converts unannotated
// accesses to the same global.
func TestVolatileSeeding(t *testing.T) {
	m := compile(t, `
volatile int v;
int g;
int touch(void) {
  v = 1;
  return v;
}
int plain(int *p) {
  *p = 5;      // unknown location: untouched
  g = v + 1;   // v read via alias exploration seed
  return g;
}
`)
	rep := port(t, m, Options{Level: LevelExplicit})
	if rep.VolatileConverted == 0 {
		t.Fatal("no volatile accesses converted")
	}
	for i, ord := range accessOrds(m, "v") {
		if ord != ir.SeqCst {
			t.Errorf("v access %d order = %s", i, ord)
		}
	}
	// g and *p stay plain at the explicit level (only v was annotated).
	for i, ord := range accessOrds(m, "g") {
		if ord != ir.NotAtomic {
			t.Errorf("g access %d transformed unexpectedly", i)
		}
	}
}

// TestAtomicUpgrade: weaker atomics are raised to seq_cst.
func TestAtomicUpgrade(t *testing.T) {
	m := compile(t, `
int x;
int f(void) {
  __store_rel(&x, 1);
  return __load_acq(&x);
}
`)
	rep := port(t, m, Options{Level: LevelExplicit})
	if rep.AtomicUpgraded != 2 {
		t.Fatalf("AtomicUpgraded = %d, want 2", rep.AtomicUpgraded)
	}
	for i, ord := range accessOrds(m, "x") {
		if ord != ir.SeqCst {
			t.Errorf("x access %d order = %s", i, ord)
		}
	}
}

// TestSpinOnEscapedLocal: a loop spinning on a local whose address is
// written into escaped local memory is a spinloop, whether a store or
// an xchg writes the address, and its flag read becomes seq_cst.
func TestSpinOnEscapedLocal(t *testing.T) {
	for _, publish := range []string{"box = &flag;", "__xchg(&box, &flag);"} {
		m := compile(t, `
int **gp;
void waiter(void) {
  int *box;
  int flag = 0;
  gp = &box;
  `+publish+`
  while (flag == 0) { }
}
`)
		rep := port(t, m, DefaultOptions())
		if rep.Spinloops != 1 {
			t.Errorf("%s: spinloops = %d, want 1", publish, rep.Spinloops)
			continue
		}
		var allocas []*ir.Instr
		m.Func("waiter").Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpAlloca {
				allocas = append(allocas, in)
			}
			if in.Op == ir.OpLoad && len(allocas) == 2 && in.Args[0] == allocas[1] && in.Ord != ir.SeqCst {
				t.Errorf("%s: flag read %q is not seq_cst", publish, in)
			}
		})
	}
}

// TestPortClone leaves the original untouched.
func TestPortClone(t *testing.T) {
	m := compile(t, `
int flag;
void w(void) { flag = 1; }
void r(void) { while (flag == 0) { } }
`)
	ported, rep, err := PortClone(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spinloops != 1 {
		t.Fatalf("spinloops = %d", rep.Spinloops)
	}
	for _, ord := range accessOrds(m, "flag") {
		if ord != ir.NotAtomic {
			t.Fatal("PortClone mutated the original module")
		}
	}
	for _, ord := range accessOrds(ported, "flag") {
		if ord != ir.SeqCst {
			t.Fatal("PortClone did not transform the clone")
		}
	}
}

// TestBarrierInventory: report counters are consistent with a recount.
func TestBarrierInventory(t *testing.T) {
	m := compile(t, `
volatile int flag;
int msg;
void writer(void) { msg = 1; flag = flag + 1; __fence(); msg = 2; flag = flag + 1; __fence(); }
int reader(void) {
  int i;
  int d;
  do { i = flag; d = msg; } while (i % 2 != 0 || i != flag);
  return d;
}
`)
	rep := port(t, m, DefaultOptions())
	gotExpl, gotImpl := transform.CountBarriers(m)
	if gotExpl != rep.ExplicitAfter || gotImpl != rep.ImplicitAfter {
		t.Fatalf("inventory mismatch: recount %d/%d, report %d/%d",
			gotExpl, gotImpl, rep.ExplicitAfter, rep.ImplicitAfter)
	}
	if rep.ExplicitAfter <= rep.ExplicitBefore {
		t.Errorf("expected fences added: before %d after %d", rep.ExplicitBefore, rep.ExplicitAfter)
	}
	if rep.ImplicitAfter <= rep.ImplicitBefore {
		t.Errorf("expected implicit barriers added: before %d after %d", rep.ImplicitBefore, rep.ImplicitAfter)
	}
}
