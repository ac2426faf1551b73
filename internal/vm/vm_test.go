package vm

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/memmodel"
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

func run(t *testing.T, m *ir.Module, opts Options) *Result {
	t.Helper()
	res, err := Run(m, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSequentialArithmetic(t *testing.T) {
	m := compile(t, `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main_thread(void) {
  print(fib(10));
  print(3 * 7 % 5);
  print(1 << 6);
  print(-9 / 2);
  print(255 & 15);
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}})
	if res.Status != StatusDone {
		t.Fatalf("status = %s", res.Status)
	}
	want := []int64{55, 1, 64, -4, 15}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
}

func TestStructsArraysPointers(t *testing.T) {
	m := compile(t, `
struct point { int x; int y; };
struct point grid[4];
int sum(void) {
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) {
    grid[i].x = i;
    grid[i].y = i * 10;
  }
  for (int i = 0; i < 4; i = i + 1) {
    acc = acc + grid[i].x + grid[i].y;
  }
  return acc;
}
void main_thread(void) {
  print(sum());
  struct point *p = &grid[2];
  p->x = 100;
  print(grid[2].x);
  int arr[3] = {7, 8, 9};
  int *q = arr;
  print(q[1]);
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}})
	if res.Status != StatusDone {
		t.Fatalf("status = %s (%s)", res.Status, res.FailMsg)
	}
	want := []int64{66, 100, 8}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
}

func TestMallocLinkedList(t *testing.T) {
	m := compile(t, `
struct node { int v; struct node *next; };
void main_thread(void) {
  struct node *head = (struct node *)0;
  for (int i = 0; i < 5; i = i + 1) {
    struct node *n = malloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  int sum = 0;
  while (head != 0) {
    sum = sum + head->v;
    head = head->next;
  }
  print(sum);
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}})
	if res.Status != StatusDone || res.Output[0] != 10 {
		t.Fatalf("status=%s output=%v", res.Status, res.Output)
	}
}

func TestSpawnJoin(t *testing.T) {
	m := compile(t, `
int counter;
void worker(void) {
  __faa(&counter, 1);
}
void main_thread(void) {
  spawn(worker);
  spawn(worker);
  spawn(worker);
  join();
  assert(counter == 3);
  print(counter);
}
`)
	for seed := int64(0); seed < 20; seed++ {
		res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}, Seed: seed})
		if res.Status != StatusDone {
			t.Fatalf("seed %d: status = %s (%s)", seed, res.Status, res.FailMsg)
		}
	}
}

// TestFuncRefResolvesInItsModule: a function reference names its
// target, so a spawner two modules share spawns each module's own
// function of that name, in every VM and whatever ran before, and a
// module that lacks the name fails the spawn.
func TestFuncRefResolvesInItsModule(t *testing.T) {
	good := compile(t, `
int done;
void worker(void) { done = 1; }
void main_thread(void) { spawn(worker); join(); assert(done == 1); }
`)
	lazy, err := ir.ParseFunc(good, "define void @worker() {\nentry:\n  ret void\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	bad := good.Derive(good.Funcs)
	bad.ReplaceFuncs(lazy)
	if bad.Func("main_thread") != good.Func("main_thread") {
		t.Fatal("the modules do not share their spawner")
	}
	opts := Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}}
	for i, m := range []*ir.Module{bad, good, bad, good} {
		want := StatusDone
		if m == bad {
			want = StatusAssertFailed
		}
		if res := run(t, m, opts); res.Status != want {
			t.Errorf("run %d: status %s, want %s", i, res.Status, want)
		}
	}
	v, err := New(good, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res, err := v.Run(); err != nil || res.Status != StatusDone {
			t.Fatalf("reused VM, run %d: %v %v", i, res, err)
		}
		if err := v.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	none := good.Derive([]*ir.Func{good.Func("main_thread")})
	if _, err := Run(none, opts); err == nil || !strings.Contains(err.Error(), "spawn of unknown function @worker") {
		t.Errorf("spawn of a function the module lacks: err = %v", err)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	m := compile(t, `
int phase1[3];
int ok;
void worker(void) {
  int id = tid() - 1;
  phase1[id] = 1;
  barrier(3);
  // After the barrier every worker observes all phase-1 writes.
  if (phase1[0] + phase1[1] + phase1[2] == 3) {
    __faa(&ok, 1);
  }
}
void main_thread(void) {
  spawn(worker);
  spawn(worker);
  spawn(worker);
  join();
  assert(ok == 3);
}
`)
	for seed := int64(0); seed < 20; seed++ {
		res := run(t, m, Options{Model: memmodel.ModelWMM, Entries: []string{"main_thread"}, Seed: seed})
		if res.Status != StatusDone {
			t.Fatalf("seed %d: status = %s (%s)", seed, res.Status, res.FailMsg)
		}
	}
}

// TestMessagePassingWeakness (the executable version of Figure 1)
// lives in port_test.go, in the external test package: it needs the
// atomig pipeline, which imports vm through the race detector.

// TestMessagePassingHoldsOnTSO: the unported program is correct on TSO —
// that is the porting problem in a nutshell.
func TestMessagePassingHoldsOnTSO(t *testing.T) {
	m := compile(t, `
int flag;
int msg;
void writer(void) { msg = 1; flag = 1; }
void reader(void) {
  while (flag == 0) { }
  assert(msg == 1);
}
`)
	for seed := int64(0); seed < 200; seed++ {
		res := run(t, m, Options{
			Model: memmodel.ModelTSO, Entries: []string{"reader", "writer"},
			Seed: seed, MaxSteps: 100_000,
		})
		if res.Status == StatusAssertFailed {
			t.Fatalf("MP failed under TSO at seed %d", seed)
		}
	}
}

func TestCountersAndCycles(t *testing.T) {
	m := compile(t, `
_Atomic int a;
int p;
void main_thread(void) {
  p = 1;        // non-atomic store
  int x = p;    // non-atomic load (plus local slot traffic)
  a = x;        // atomic store
  x = a;        // atomic load
  __fence();
  __faa(&a, 1);
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}})
	if res.Status != StatusDone {
		t.Fatalf("status = %s", res.Status)
	}
	cnt := res.Counters
	if cnt.AtomicStores != 1 || cnt.AtomicLoads != 1 {
		t.Errorf("atomic loads/stores = %d/%d, want 1/1", cnt.AtomicLoads, cnt.AtomicStores)
	}
	if cnt.Fences != 1 || cnt.RMWs != 1 {
		t.Errorf("fences/rmws = %d/%d, want 1/1", cnt.Fences, cnt.RMWs)
	}
	if cnt.NonAtomicStores == 0 || cnt.NonAtomicLoads == 0 {
		t.Error("non-atomic counters empty")
	}
	if res.MaxCycles == 0 || res.TotalCycles < res.MaxCycles {
		t.Errorf("cycles inconsistent: max=%d total=%d", res.MaxCycles, res.TotalCycles)
	}
	// The cost model must price a draining fence above an implicit
	// barrier, and implicit barriers above plain accesses.
	costs := DefaultCosts()
	if costs.FenceSC+costs.FenceDrain <= costs.AtomicStore || costs.AtomicStore <= costs.Plain {
		t.Error("cost model ordering violated")
	}
	if costs.ContendedLoad <= costs.ContendedPlain {
		t.Error("atomic fill must cost more than the plain-load residue")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := compile(t, `
void stuck(void) {
  barrier(2); // nobody else ever arrives
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"stuck"}})
	if res.Status != StatusDeadlock {
		t.Fatalf("status = %s, want deadlock", res.Status)
	}
}

func TestStepLimit(t *testing.T) {
	m := compile(t, `
void spin(void) {
  while (1) { }
}
`)
	res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"spin"}, MaxSteps: 1000})
	if res.Status != StatusStepLimit {
		t.Fatalf("status = %s, want step-limit", res.Status)
	}
}

func TestNondetRange(t *testing.T) {
	m := compile(t, `
void main_thread(void) {
  int x = nondet();
  assert(x == 0 || x == 1);
  print(x);
}
`)
	for seed := int64(0); seed < 10; seed++ {
		res := run(t, m, Options{Model: memmodel.ModelSC, Entries: []string{"main_thread"}, Seed: seed})
		if res.Status != StatusDone {
			t.Fatalf("status = %s", res.Status)
		}
	}
}

func TestEntryErrors(t *testing.T) {
	m := compile(t, `void f(int x) { }`)
	if _, err := Run(m, Options{Entries: []string{"missing"}}); err == nil {
		t.Error("accepted missing entry")
	}
	if _, err := Run(m, Options{Entries: []string{"f"}}); err == nil {
		t.Error("accepted entry with parameters")
	}
	if _, err := Run(m, Options{}); err == nil {
		t.Error("accepted empty entry list")
	}
}

func TestProfileAttributesCycles(t *testing.T) {
	m := compile(t, `
int g;
void hot(void) {
  for (int i = 0; i < 1000; i = i + 1) { g = g + i; }
}
void cold(void) { g = g + 1; }
void main_thread(void) { hot(); cold(); }
`)
	res := run(t, m, Options{
		Model: memmodel.ModelSC, Entries: []string{"main_thread"}, Profile: true,
	})
	if res.FuncCycles == nil {
		t.Fatal("no profile collected")
	}
	if res.FuncCycles["hot"] <= res.FuncCycles["cold"] {
		t.Fatalf("profile: hot=%d cold=%d", res.FuncCycles["hot"], res.FuncCycles["cold"])
	}
	var total int64
	for _, c := range res.FuncCycles {
		total += c
	}
	if total != res.TotalCycles {
		t.Fatalf("profile total %d != TotalCycles %d", total, res.TotalCycles)
	}
}
