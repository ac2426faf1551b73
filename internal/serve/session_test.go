// White-box tests of incremental edits: the snapshot an edit builds
// piece by piece must equal the one the whole-module rebuild it replaced
// builds, batch after batch, the summary slots it keeps must still
// describe their functions, and edits must not pin old module versions.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
)

// rebuildReference is the whole-module snapshot build that incremental
// rebuilds replaced, kept as their reference: clone the base, inline
// the clone.
func (s *session) rebuildReference() error {
	snap, err := ir.CloneModule(s.base)
	if err != nil {
		return err
	}
	analysis.Inline(snap)
	s.snap = snap
	return nil
}

// editReference applies a batch the way edits did before they shared
// functions: on a whole clone, verified whole, then rebuilt whole.
func (s *session) editReference(replace, remove []string) error {
	next, err := ir.CloneModule(s.base)
	if err != nil {
		return err
	}
	for i, text := range replace {
		f, err := ir.ParseFunc(s.base, text)
		if err != nil {
			return fmt.Errorf("replace[%d]: %w", i, err)
		}
		next.ReplaceFuncs(f)
	}
	for _, name := range remove {
		if !next.RemoveFunc(name) {
			return fmt.Errorf("remove @%s: no such function", name)
		}
	}
	if err := ir.Verify(next); err != nil {
		return fmt.Errorf("delta leaves module invalid: %w", err)
	}
	s.base = next
	return s.rebuildReference()
}

// editBase is the differential tests' module: h0 is a leaf; h1 and h2
// nest it (a second inline round); h3 is self-recursive and h4/h5
// mutually recursive; t0 and t1 are thread entries that spawn each
// other, and t1 calls the builtin yield. h6, h7, t2 and t3 are free for
// batches to add.
const editBase = `; module edits
@g = global i64
@flag = global i64

define i64 @h0(i64 %a) {
entry:
  %t0 = load i64, @g
  %t1 = add %a, %t0
  ret %t1
}

define i64 @h1(i64 %a) {
entry:
  %t0 = call i64 @h0(%a)
  %t1 = mul %t0, 2
  ret %t1
}

define i64 @h2(i64 %a) {
entry:
  %t0 = call i64 @h1(%a)
  %t1 = call i64 @h0(%t0)
  ret %t1
}

define i64 @h3(i64 %a) {
entry:
  %t0 = icmp sle %a, 1
  br %t0, label %base, label %rec
base:
  ret 1
rec:
  %t1 = sub %a, 1
  %t2 = call i64 @h3(%t1)
  %t3 = call i64 @h2(%t2)
  ret %t3
}

define i64 @h4(i64 %a) {
entry:
  %t0 = icmp sle %a, 0
  br %t0, label %done, label %more
done:
  ret 0
more:
  %t1 = sub %a, 1
  %t2 = call i64 @h5(%t1)
  ret %t2
}

define i64 @h5(i64 %a) {
entry:
  %t0 = call i64 @h4(%a)
  %t1 = call i64 @h1(%t0)
  ret %t1
}

define void @t0() {
entry:
  %t0 = call i64 @h2(1)
  store %t0, @g
  store 1, @flag
  call void @spawn(@t1)
  ret void
}

define void @t1() {
entry:
  call void @spawn(@t0)
  call void @yield()
  %t1 = load i64, @flag
  %t2 = call i64 @h5(%t1)
  store %t2, @g
  ret void
}
`

var (
	valueFuncs  = []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	threadFuncs = []string{"t0", "t1", "t2", "t3"}
	editFuncs   = append(append([]string(nil), valueFuncs...), threadFuncs...)
)

// editGen draws edit batches for editBase from pick, which returns a
// number in [0, n): a seeded generator in the test, fuzz bytes in the
// fuzz target.
type editGen struct {
	pick func(n int) int
}

func (g editGen) of(names []string) string { return names[g.pick(len(names))] }

// valueFunc renders @name(i64 %a): a load and an add, then up to three
// calls in a chain (to any value function, itself included, so batches
// make and break cycles), sometimes a spawn, a store and the return.
// Now and then it is malformed in one of the ways Verify must reject.
func (g editGen) valueFunc(name string) string {
	var b strings.Builder
	params := "i64 %a"
	if g.pick(12) == 0 {
		params = "i64 %a, i64 %b" // its callers now pass too few arguments
	}
	fmt.Fprintf(&b, "define i64 @%s(%s) {\nentry:\n  %%t0 = load i64, @g\n  %%t1 = add %%a, %%t0\n", name, params)
	last := 1
	for n := g.pick(4); n > 0; n-- {
		callee, args := g.of(valueFuncs), fmt.Sprintf("%%t%d", last)
		switch g.pick(16) {
		case 0:
			callee = "nosuch"
		case 1:
			args += ", 1"
		}
		fmt.Fprintf(&b, "  %%t%d = call i64 @%s(%s)\n", last+1, callee, args)
		last++
	}
	if g.pick(4) == 0 {
		fmt.Fprintf(&b, "  call void @spawn(@%s)\n", g.of(threadFuncs))
	}
	fmt.Fprintf(&b, "  store %%t%d, @g\n  ret %%t%d\n}\n", last, last)
	return b.String()
}

// threadFunc renders a thread entry @name(): a call, a store, and
// sometimes a spawn of another thread entry (or of a missing one).
func (g editGen) threadFunc(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "define void @%s() {\nentry:\n  %%t0 = call i64 @%s(1)\n  store %%t0, @flag\n", name, g.of(valueFuncs))
	if g.pick(2) == 0 {
		target := g.of(threadFuncs)
		if g.pick(10) == 0 {
			target = "gone"
		}
		fmt.Fprintf(&b, "  call void @spawn(@%s)\n", target)
	}
	b.WriteString("  ret void\n}\n")
	return b.String()
}

// batch draws one to three replacements or removals; now and then a
// replacement does not parse.
func (g editGen) batch() (replace, remove []string) {
	for n := 1 + g.pick(3); n > 0; n-- {
		switch g.pick(8) {
		case 0, 1:
			remove = append(remove, g.of(editFuncs))
		case 2:
			replace = append(replace, g.threadFunc(g.of(threadFuncs)))
		case 3:
			if g.pick(4) == 0 {
				replace = append(replace, "define i64 @h0(i64 %a) {\nentry:\n  %t0 = frob\n}\n")
				continue
			}
			fallthrough
		default:
			replace = append(replace, g.valueFunc(g.of(valueFuncs)))
		}
	}
	return replace, remove
}

// editPair is one module edited two ways: incrementally (inc) and by
// the whole-module reference (ref).
type editPair struct {
	t        testing.TB
	inc, ref *session
}

func newEditPair(t testing.TB) *editPair {
	t.Helper()
	inc, err := newSession("edits.air", editBase, "air", 1, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m, err := ir.ParseModule(editBase)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ref := &session{base: m}
	if err := ref.rebuildReference(); err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	p := &editPair{t: t, inc: inc, ref: ref}
	p.check("load", len(inc.snap.Funcs))
	return p
}

// apply edits both sessions and checks they agree: the same verdict and
// error, and on success the same module and snapshot, with the summary
// slots of exactly the rebuilt functions emptied (see check). It
// reports whether the batch was accepted.
func (p *editPair) apply(what string, replace, remove []string) bool {
	p.t.Helper()
	base := p.inc.base
	rebuilt, _, err := p.inc.edit(replace, remove)
	refErr := p.ref.editReference(replace, remove)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		p.t.Fatalf("%s: incremental edit returned %v, reference %v\nreplace: %q\nremove: %q", what, err, refErr, replace, remove)
	}
	if err != nil {
		if p.inc.base != base {
			p.t.Fatalf("%s: rejected batch changed the module", what)
		}
		return false
	}
	p.check(what, rebuilt)
	return true
}

// check compares the incremental session with the reference after a
// batch that rebuilt that many snapshot functions. Every summary slot
// the batch kept must equal the summary a port with empty slots
// computes for its snapshot function now, and the next port must
// re-analyze exactly the rebuilt functions, give that port's text, and
// leave the snapshot it shares functions with as it was. That port
// fills every slot, so the next batch starts from a warm session. Every
// reference of the module and the snapshot names one of its functions.
func (p *editPair) check(what string, rebuilt int) {
	p.t.Helper()
	inc, ref := p.inc, p.ref
	if got, want := inc.base.String(), ref.base.String(); got != want {
		p.t.Fatalf("%s: module differs from the reference:\n%s\nwant:\n%s", what, got, want)
	}
	snapText := inc.snap.String()
	if want := ref.snap.String(); snapText != want {
		p.t.Fatalf("%s: snapshot differs from the reference rebuild:\n%s\nwant:\n%s", what, snapText, want)
	}
	fresh := make([]*atomig.FuncSummary, len(inc.snap.Funcs))
	opts := portOptions()
	opts.Summaries = fresh
	cold, _, err := atomig.PortClone(inc.snap, opts)
	if err != nil {
		p.t.Fatalf("%s: port with empty slots: %v", what, err)
	}
	if len(inc.sums) != len(fresh) {
		p.t.Fatalf("%s: %d summary slots for %d snapshot functions", what, len(inc.sums), len(fresh))
	}
	for i, sum := range inc.sums {
		if sum != nil && !reflect.DeepEqual(sum, fresh[i]) {
			p.t.Fatalf("%s: the kept summary of @%s is not its snapshot function's", what, inc.snap.Funcs[i].Name)
		}
	}
	ported, rep, err := inc.port(context.Background(), 1, nil)
	if err != nil {
		p.t.Fatalf("%s: port: %v", what, err)
	}
	if rep.CacheMisses != rebuilt {
		p.t.Fatalf("%s: port re-analyzed %d functions (%d replayed), the batch rebuilt %d", what, rep.CacheMisses, rep.CacheHits, rebuilt)
	}
	if got, want := ported.String(), cold.String(); got != want {
		p.t.Fatalf("%s: port differs from the port with empty slots:\n%s\nwant:\n%s", what, got, want)
	}
	if inc.snap.String() != snapText {
		p.t.Fatalf("%s: the port wrote the snapshot", what)
	}
	if n := inc.filled(); n != len(inc.snap.Funcs) {
		p.t.Fatalf("%s: %d of %d summary slots filled after a port", what, n, len(inc.snap.Funcs))
	}
	for _, m := range []*ir.Module{inc.base, inc.snap} {
		m.EachInstr(func(f *ir.Func, in *ir.Instr) {
			for _, a := range in.Args {
				if r, ok := a.(*ir.FuncRef); ok && m.Func(r.Name) == nil {
					p.t.Fatalf("%s: @%s references @%s, which the module lacks", what, f.Name, r.Name)
				}
			}
		})
	}
}

// TestIncrementalSnapshotMatchesRebuild is the differential test of
// incremental edits: scripted batches for the cases that matter, then
// random ones, each checked against the whole-module reference.
func TestIncrementalSnapshotMatchesRebuild(t *testing.T) {
	p := newEditPair(t)
	leaf := func(name, op string) string {
		return fmt.Sprintf("define i64 @%s(i64 %%a) {\nentry:\n  %%t0 = load i64, @g\n  %%t1 = %s %%a, %%t0\n  ret %%t1\n}\n", name, op)
	}
	calls := func(name string, callees ...string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "define i64 @%s(i64 %%a) {\nentry:\n  %%t0 = add %%a, 1\n", name)
		for i, c := range callees {
			fmt.Fprintf(&b, "  %%t%d = call i64 @%s(%%t%d)\n", i+1, c, i)
		}
		fmt.Fprintf(&b, "  ret %%t%d\n}\n", len(callees))
		return b.String()
	}
	scripted := []struct {
		what            string
		replace, remove []string
		ok              bool
	}{
		{"callee edit reaches inlined callers", []string{leaf("h0", "sub")}, nil, true},
		{"new functions that call each other", []string{calls("h6", "h7", "h0"), calls("h7", "h1")}, nil, true},
		{"edit makes h1 recursive", []string{calls("h1", "h0", "h2")}, nil, true},
		{"edit breaks the cycle", []string{calls("h1", "h0")}, nil, true},
		{"remove a called function", nil, []string{"h0"}, false},
		{"remove a spawned function", nil, []string{"t1"}, false},
		{"remove a missing function", nil, []string{"h9"}, false},
		{"callee gains a parameter", []string{strings.Replace(leaf("h0", "add"), "(i64 %a)", "(i64 %a, i64 %b)", 1)}, nil, false},
		{"callee stops returning a value", []string{"define void @h0(i64 %a) {\nentry:\n  store %a, @g\n  ret void\n}\n"}, nil, false},
		{"spawn a function the batch adds", []string{
			"define void @t2() {\nentry:\n  call void @spawn(@t3)\n  ret void\n}\n",
			"define void @t3() {\nentry:\n  call void @spawn(@t2)\n  %t1 = call i64 @h6(2)\n  ret void\n}\n",
		}, nil, true},
		{"remove a function still called", nil, []string{"h6"}, false},
		{"remove functions that only use each other", nil, []string{"t2", "t3", "h6"}, true},
		{"replace and remove in one batch", []string{calls("h3", "h2")}, []string{"h7"}, true},
		{"a function takes over a builtin's calls", []string{"define void @yield() {\nentry:\n  store 5, @g\n  ret void\n}\n"}, nil, true},
		{"a replacement that does not parse", []string{"define i64 @h0(i64 %a) {\nentry:\n  %t0 = frob\n}\n"}, nil, false},
	}
	for _, sc := range scripted {
		if got := p.apply(sc.what, sc.replace, sc.remove); got != sc.ok {
			t.Fatalf("%s: accepted=%t, want %t", sc.what, got, sc.ok)
		}
	}

	rng := rand.New(rand.NewSource(1))
	g := editGen{pick: rng.Intn}
	accepted := 0
	for i := 0; i < 300; i++ {
		replace, remove := g.batch()
		if p.apply(fmt.Sprintf("random batch %d", i), replace, remove) {
			accepted++
		}
	}
	if accepted < 50 {
		t.Errorf("only %d of 300 random batches were accepted; the generator no longer exercises rebuilds", accepted)
	}
}

// FuzzSessionEdit runs the differential check on batches drawn from the
// fuzz input.
func FuzzSessionEdit(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("remove a called function, then replace h0"))
	f.Add([]byte{4, 0, 1, 3, 3, 2, 7, 7, 1, 2, 5, 0, 3, 9, 9, 1, 0, 4, 2, 6, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newEditPair(t)
		g := editGen{pick: func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}}
		for i := 0; len(data) > 0 && i < 20; i++ {
			replace, remove := g.batch()
			p.apply(fmt.Sprintf("batch %d", i), replace, remove)
		}
	})
}

// fillerDelta gives filler t the body of filler donor, renamed: the
// edit serve-edit makes each round.
func fillerDelta(base *ir.Module, t, donor int) string {
	from, to := fmt.Sprintf("@lg_compute%d(", donor), fmt.Sprintf("@lg_compute%d(", t)
	return strings.Replace(ir.FuncString(base.Func(from[1:len(from)-1])), from, to, 1)
}

func loadFillerSession(t testing.TB) (*session, int) {
	t.Helper()
	src, _ := appgen.GenerateLarge(appgen.LargeSpec("serve-edit.c", 8000, 7))
	s, err := newSession("serve-edit.c", src, "c", 1, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	n := 0
	for s.base.Func(fmt.Sprintf("lg_compute%d", n)) != nil {
		n++
	}
	if n < 2 {
		t.Fatalf("module has %d filler functions, need 2", n)
	}
	return s, n
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEditsDoNotPinOldModules checks that a long run of edits keeps no
// old module version alive through the functions the versions share.
func TestEditsDoNotPinOldModules(t *testing.T) {
	s, fillers := loadFillerSession(t)
	orig := s.base
	before := liveHeap()
	for i := 0; i < 1000; i++ {
		tgt, k := i%fillers, 1+i/fillers
		rebuilt, _, err := s.edit([]string{fillerDelta(orig, tgt, (tgt+k)%fillers)}, nil)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if rebuilt != 1 {
			t.Fatalf("edit %d rebuilt %d functions, want 1", i, rebuilt)
		}
	}
	orig = nil
	after := liveHeap()
	runtime.KeepAlive(s)
	t.Logf("live heap %.1f MB after load, %.1f MB after 1000 edits", float64(before)/(1<<20), float64(after)/(1<<20))
	if after > before+8<<20 {
		t.Errorf("live heap grew by more than 8 MB over 1000 edits")
	}
}

// BenchmarkSessionEdit measures one serve-edit-style edit: a filler
// function of an 8k-line module gets a new body.
func BenchmarkSessionEdit(b *testing.B) {
	s, fillers := loadFillerSession(b)
	orig := s.base
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt, k := i%fillers, 1+i/fillers
		if _, _, err := s.edit([]string{fillerDelta(orig, tgt, (tgt+k)%fillers)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEditPort measures one serve-edit round: the edit
// BenchmarkSessionEdit makes, then a warm port of the edited session.
func BenchmarkSessionEditPort(b *testing.B) {
	s, fillers := loadFillerSession(b)
	if _, _, err := s.port(context.Background(), 1, nil); err != nil {
		b.Fatal(err)
	}
	orig := s.base
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt, k := i%fillers, 1+i/fillers
		if _, _, err := s.edit([]string{fillerDelta(orig, tgt, (tgt+k)%fillers)}, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.port(context.Background(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmPortAllocs bounds what a warm port allocates after a
// one-filler edit of the serve-edit module: at most 1.5 MB, the least
// of three edit-then-port rounds. A port whose replay, alias map or
// fence search again builds a record per memory access, rather than
// per shared access, allocates about 3.7 MB here.
func TestWarmPortAllocs(t *testing.T) {
	s, fillers := loadFillerSession(t)
	if _, _, err := s.port(context.Background(), 1, nil); err != nil {
		t.Fatalf("cold port: %v", err)
	}
	least := uint64(1 << 63)
	for i := 0; i < 3; i++ {
		if _, _, err := s.edit([]string{fillerDelta(s.base, i%fillers, (i+1)%fillers)}, nil); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rep, err := s.port(context.Background(), 1, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("warm port %d: %v", i, err)
		}
		if rep.CacheMisses != 1 {
			t.Fatalf("warm port %d re-analyzed %d functions, want 1", i, rep.CacheMisses)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm port allocates %.2f MB", float64(least)/(1<<20))
	if least > 3<<19 {
		t.Errorf("a warm port allocates %.2f MB, want <= 1.5 MB", float64(least)/(1<<20))
	}
}

// TestWarmPortCopiesWhatItWrites: a warm port after a one-filler edit
// of the serve-edit module copies fewer than a quarter of the snapshot
// functions and shares the rest, while the cold port copies them all,
// and both give the whole-clone port's text.
func TestWarmPortCopiesWhatItWrites(t *testing.T) {
	s, fillers := loadFillerSession(t)
	ported, cold, err := s.port(context.Background(), 1, nil)
	if err != nil {
		t.Fatalf("cold port: %v", err)
	}
	if n := len(s.snap.Funcs); cold.FunctionsCopied != n {
		t.Errorf("cold port copied %d of %d functions, want all", cold.FunctionsCopied, n)
	}
	want, _, err := atomig.PortClone(s.snap, portOptions())
	if err != nil {
		t.Fatalf("reference port: %v", err)
	}
	if ported.String() != want.String() {
		t.Errorf("cold port differs from the whole-clone port")
	}

	if _, _, err := s.edit([]string{fillerDelta(s.base, 0, 1%fillers)}, nil); err != nil {
		t.Fatalf("edit: %v", err)
	}
	snapText := s.snap.String()
	ported, warm, err := s.port(context.Background(), 1, nil)
	if err != nil {
		t.Fatalf("warm port: %v", err)
	}
	n := len(s.snap.Funcs)
	t.Logf("warm port after a one-filler edit copied %d of %d functions", warm.FunctionsCopied, n)
	if warm.CacheMisses != 1 || 4*warm.FunctionsCopied >= n {
		t.Errorf("warm port: %d misses, %d of %d functions copied; want 1 miss and fewer than a quarter copied",
			warm.CacheMisses, warm.FunctionsCopied, n)
	}
	shared := 0
	for i, f := range ported.Funcs {
		if f == s.snap.Funcs[i] {
			shared++
		}
	}
	if shared+warm.FunctionsCopied != n {
		t.Errorf("%d functions shared and %d copied, of %d", shared, warm.FunctionsCopied, n)
	}
	want, _, err = atomig.PortClone(s.snap, portOptions())
	if err != nil {
		t.Fatalf("reference port: %v", err)
	}
	if ported.String() != want.String() {
		t.Errorf("warm port differs from the whole-clone port")
	}
	if s.snap.String() != snapText {
		t.Errorf("the warm port wrote the snapshot")
	}
}
