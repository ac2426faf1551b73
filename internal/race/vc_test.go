package race

import (
	"testing"

	"repro/internal/vm"
)

func TestVCJoinAndGet(t *testing.T) {
	a := VC{3, 0, 5}
	b := VC{1, 7}
	a.join(b)
	want := VC{3, 7, 5}
	if len(a) != len(want) {
		t.Fatalf("join length = %d, want %d", len(a), len(want))
	}
	for i := range want {
		if a.get(i) != want[i] {
			t.Errorf("component %d = %d, want %d", i, a.get(i), want[i])
		}
	}
	if a.get(99) != 0 {
		t.Errorf("out-of-range component = %d, want 0", a.get(99))
	}
}

func TestVCJoinGrows(t *testing.T) {
	var a VC
	a.join(VC{0, 0, 4})
	if a.get(2) != 4 {
		t.Fatalf("grown component = %d, want 4", a.get(2))
	}
	if a.get(0) != 0 || a.get(1) != 0 {
		t.Fatalf("padding components not zero: %v", a)
	}
}

func TestVCCloneIsIndependent(t *testing.T) {
	a := VC{1, 2}
	c := a.clone()
	c[0] = 9
	if a[0] != 1 {
		t.Fatalf("clone aliases original: %v", a)
	}
}

func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	build := func() *Detector {
		d := New(0, Options{})
		d.ensure(2)
		d.clocks[1][1] = 5
		l := d.loc(vm.AccessEvent{Addr: 64, Cell: 0})
		l.hasWrite = true
		l.write = accessRec{thread: 1, clock: 5, write: true}
		l.sync = VC{0, 5}
		return d
	}
	d1, d2 := build(), build()
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatalf("fingerprint not deterministic: %#x vs %#x", d1.Fingerprint(), d2.Fingerprint())
	}
	d2.clocks[1][1] = 6
	if d1.Fingerprint() == d2.Fingerprint() {
		t.Fatalf("fingerprint insensitive to clock change")
	}
	d3 := build()
	d3.loc(vm.AccessEvent{Addr: 65, Cell: 1})
	if d1.Fingerprint() == d3.Fingerprint() {
		t.Fatalf("fingerprint insensitive to new location")
	}
}

func TestBeginExecKeepsReportsResetsClocks(t *testing.T) {
	d := New(0, Options{})
	d.ensure(1)
	d.reports = append(d.reports, &Report{})
	d.BeginExec()
	if len(d.clocks) != 0 {
		t.Fatalf("clocks survived BeginExec: %v", d.clocks)
	}
	if d.Races() != 1 {
		t.Fatalf("reports dropped by BeginExec: %d", d.Races())
	}
	if d.ExecFoundNew() {
		t.Fatalf("ExecFoundNew true right after BeginExec")
	}
}
