package alias_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
)

// fuzzSeedModules are the hand-written AIR shapes the fuzzer mutates
// from: nested structs (composed GEP chains), arrays of structs
// (unions of offsets through trimmed indexes), and cross-global buddy
// chains (two globals of one struct type whose field accesses must
// land in a single sticky class). The same texts are checked in under
// testdata/fuzz/FuzzAliasExplore for `go test -fuzz`.
func fuzzSeedModules() []string {
	return []string{
		// Scalar globals, message-passing shape.
		"; module mp\n@flag = global i64\n@msg = global i64\n\n" +
			"define void @w() {\nentry:\n  store 1, @msg\n  store 1, @flag\n  ret void\n}\n\n" +
			"define void @r() {\nentry:\n  %t0 = load i64, @flag\n  %t1 = load i64, @msg\n  ret void\n}\n",
		// Nested structs: a direct two-field path and the same cell
		// reached through a composed GEP chain.
		"; module nested\n%in = type {i64 flag, i64 pad}\n%out = type {%in in, i64 other}\n@g = global %out\n\n" +
			"define void @direct() {\nentry:\n  %t0 = getelementptr %out, @g, field 0, field 0\n  store 1, %t0\n  ret void\n}\n\n" +
			"define void @composed() {\nentry:\n  %t0 = getelementptr %out, @g, field 0\n  %t1 = getelementptr %in, %t0, field 0\n  %t2 = load i64, %t1\n  ret void\n}\n",
		// Array of structs: dynamic-index steps trim to the same
		// (type, offset) cell as a direct field access.
		"; module offsets\n%node = type {i64 state, i64 val}\n@cells = global [4 x %node]\n@one = global %node\n\n" +
			"define void @byindex(i64 %i) {\nentry:\n  %t0 = getelementptr [4 x %node], @cells, index %i, field 0\n  store 1, %t0\n  ret void\n}\n\n" +
			"define void @byfield() {\nentry:\n  %t0 = getelementptr %node, @one, field 0\n  %t1 = load i64, %t0\n  ret void\n}\n",
		// Cross-global buddy chain: three globals of one struct type;
		// promoting the field on any one must reach all three.
		"; module chain\n%lk = type {i64 owner, i64 depth}\n@a = global %lk\n@b = global %lk\n@c = global %lk\n\n" +
			"define void @fa() {\nentry:\n  %t0 = getelementptr %lk, @a, field 0\n  store 1, %t0\n  ret void\n}\n\n" +
			"define void @fb() {\nentry:\n  %t0 = getelementptr %lk, @b, field 0\n  %t1 = load i64, %t0\n  ret void\n}\n\n" +
			"define void @fc() {\nentry:\n  %t0 = getelementptr %lk, @c, field 1\n  store 2, %t0\n  ret void\n}\n",
		"garbage that is not AIR",
		"",
	}
}

// FuzzAliasExplore feeds arbitrary AIR text to the alias map. Accepted
// modules must uphold the map's invariants at every worker count:
// identical descriptors, canonical representatives, buddy lists and
// exploration results at 1 and 4 workers (the determinism contract of
// docs/PIPELINE.md), canonicalization as a fixed point, classes closed
// under Explore, and a merge count that depends only on the final
// partition. TestMapMatchesClosure checks the same API against an
// independent reference. A panic anywhere is a finding.
func FuzzAliasExplore(f *testing.F) {
	for _, s := range fuzzSeedModules() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 16<<10 {
			t.Skip("oversized input")
		}
		m, err := ir.ParseModule(text)
		if err != nil {
			return
		}
		if err := ir.Verify(m); err != nil {
			return
		}
		m1 := alias.BuildMap(m)
		m4 := alias.BuildMapFromAccesses(m, 4, nil)

		var accesses []*ir.Instr
		m.EachInstr(func(_ *ir.Func, in *ir.Instr) {
			if in.IsMemAccess() {
				accesses = append(accesses, in)
			}
		})
		for _, in := range accesses {
			l1, l4 := m1.Loc(in), m4.Loc(in)
			if l1 != l4 {
				t.Fatalf("descriptor drift for %s: -j1 %s vs -j4 %s", in, l1, l4)
			}
			c1, c4 := m1.Canon(l1), m4.Canon(l4)
			if c1 != c4 {
				t.Fatalf("canonical drift for %s: -j1 %s vs -j4 %s", l1, c1, c4)
			}
			if again := m1.Canon(c1); again != c1 {
				t.Fatalf("Canon not a fixed point: %s -> %s -> %s", l1, c1, again)
			}
			if l1.Shared() {
				buddies1, buddies4 := m1.Buddies(l1), m4.Buddies(l1)
				if !sameInstrs(buddies1, buddies4) {
					t.Fatalf("buddy list drift for %s", l1)
				}
				if !containsInstr(buddies1, in) {
					t.Fatalf("access %s missing from its own buddy class %s", in, l1)
				}
			}
		}

		s1, s4 := m1.SharedLocs(), m4.SharedLocs()
		if len(s1) != len(s4) {
			t.Fatalf("SharedLocs count drift: %d vs %d", len(s1), len(s4))
		}
		for i := range s1 {
			if s1[i] != s4[i] {
				t.Fatalf("SharedLocs[%d] drift: %s vs %s", i, s1[i], s4[i])
			}
		}
		if m1.Merges() != m4.Merges() {
			t.Fatalf("merge count drift: -j1 %d vs -j4 %d", m1.Merges(), m4.Merges())
		}

		e1, e4 := m1.Explore(accesses), m4.Explore(accesses)
		if !sameInstrs(e1, e4) {
			t.Fatalf("Explore drift: -j1 %d accesses vs -j4 %d", len(e1), len(e4))
		}
		if closed := m1.Explore(e1); !sameInstrs(closed, e1) {
			t.Fatalf("Explore not closed: re-exploring %d results yields %d", len(e1), len(closed))
		}
	})
}

func sameInstrs(a, b []*ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInstr(list []*ir.Instr, in *ir.Instr) bool {
	for _, x := range list {
		if x == in {
			return true
		}
	}
	return false
}
