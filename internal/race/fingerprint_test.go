package race

import (
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/memmodel"
	"repro/internal/vm"
)

// refFingerprint is Fingerprint as it was computed over an
// address-keyed location map: the locations sorted by address on every
// call.
func refFingerprint(d *Detector) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mixVC := func(v VC) {
		mix(uint64(len(v)))
		for _, c := range v {
			mix(uint64(c))
		}
	}
	mix(uint64(len(d.clocks)))
	for _, c := range d.clocks {
		mixVC(c)
	}
	mixVC(d.scClock)
	locs := make([]*locState, 0, len(d.touched))
	for _, c := range d.touched {
		locs = append(locs, d.locs.At(c))
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].addr < locs[j].addr })
	for _, l := range locs {
		mix(uint64(l.addr))
		if l.hasWrite {
			mix(uint64(l.write.thread)<<32 | uint64(l.write.clock))
		} else {
			mix(0)
		}
		mix(uint64(len(l.reads)))
		for _, r := range l.reads {
			mix(uint64(r.thread)<<32 | uint64(r.clock))
		}
		mixVC(l.sync)
	}
	return h
}

// checkedHook forwards events to a detector and compares its
// fingerprint with the reference after each one.
type checkedHook struct {
	*Detector
	t      *testing.T
	checks int
}

func (h *checkedHook) OnAccess(ev vm.AccessEvent) {
	h.Detector.OnAccess(ev)
	if got, want := h.Fingerprint(), refFingerprint(h.Detector); got != want {
		h.t.Fatalf("Fingerprint = %#x, reference %#x", got, want)
	}
	h.checks++
}

// TestFingerprintMatchesReference: across executions of the race
// corpus rows under every scheduler mode, with the detector reused
// through BeginExec, the incrementally ordered fingerprint equals the
// sort-per-call one.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, name := range []string{"seqlock-gap", "cna-lock", "iriw", "mp"} {
		p := corpus.Get(name)
		m, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		h := &checkedHook{Detector: New(memmodel.ModelWMM, Options{}), t: t}
		w := vm.NewWorkerScheduler()
		w.Reseed(vm.SchedRandom, 1)
		v, err := vm.New(m, vm.Options{Model: memmodel.ModelWMM, Entries: p.MCEntries,
			Controller: w, MaxSteps: 20_000, Hook: h})
		if err != nil {
			t.Fatal(err)
		}
		for i, mode := range vm.AllSchedModes() {
			for seed := int64(1); seed <= 4; seed++ {
				if i > 0 || seed > 1 {
					h.BeginExec()
					if err := v.Reset(); err != nil {
						t.Fatal(err)
					}
					w.Reseed(mode, seed)
				}
				if _, err := v.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if h.checks == 0 {
			t.Fatalf("%s: no accesses observed", name)
		}
	}
}
