package stress

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/memmodel"
	"repro/internal/minic"
	"repro/internal/race"
	"repro/internal/vm"
)

// harnessSpec is the standard planted-defect module for the engine
// tests: small enough to sweep fast, with every site kind represented
// so the harness exercises each emission path.
func harnessSpec() appgen.ModuleSpec {
	return appgen.ModuleSpec{
		Name: "stress-harness", Seed: 42,
		SpinSites: 4, StructSpinSites: 3, StructKinds: 2,
		NestedSpinSites: 2, SeqlockSites: 2,
		VolatileVars: 1, AtomicVars: 1,
		DataGlobals: 4, FillerFuncs: 6,
		PlantRace: true, HarnessThreads: 3,
	}
}

// portedHarness compiles and ports the spec, returning the ported
// module and its harness entries.
func portedHarness(t *testing.T, spec appgen.ModuleSpec) (*ir.Module, []string) {
	t.Helper()
	src, _ := appgen.GenerateLarge(spec)
	res, err := minic.Compile(spec.Name+".c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := atomig.Port(res.Module, atomig.DefaultOptions()); err != nil {
		t.Fatalf("port: %v", err)
	}
	return res.Module, spec.HarnessEntries()
}

// gapLoc is the planted race's location.
var gapLoc = alias.Loc{Kind: alias.LocGlobal, Name: "lg_gap_data"}

// TestSweepFindsPlantedRace: the engine's reason to exist. A correctly
// ported module with the planted seqlock-gap defect must (a) run every
// harness schedule to completion — no violations, no step-limit
// livelocks — and (b) report the race on the gap data location.
func TestSweepFindsPlantedRace(t *testing.T) {
	m, entries := portedHarness(t, harnessSpec())
	res, err := Sweep(m, Options{Entries: entries, Seeds: 20, Workers: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if v := res.Violations(); len(v) > 0 {
		t.Fatalf("ported harness violated:\n%s", strings.Join(v, "\n"))
	}
	if res.StepLimited > 0 {
		t.Fatalf("%d of %d schedules hit the step budget: harness livelock", res.StepLimited, res.Schedules)
	}
	found := false
	for _, r := range res.Races() {
		if r.Loc == gapLoc {
			found = true
		} else {
			t.Errorf("unexpected race beyond the planted one:\n%s", r)
		}
	}
	if !found {
		t.Fatalf("planted race on %s not found in %d schedules (races: %d)",
			gapLoc, res.Schedules, len(res.Races()))
	}
}

// TestSweepCleanWithoutPlant: the same harness without the planted
// defect is the negative control — the generated synchronization is
// race-free after the port, so any report is an engine false positive
// or a harness bug.
func TestSweepCleanWithoutPlant(t *testing.T) {
	spec := harnessSpec()
	spec.PlantRace = false
	m, entries := portedHarness(t, spec)
	res, err := Sweep(m, Options{Entries: entries, Seeds: 20, Workers: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if v := res.Violations(); len(v) > 0 {
		t.Fatalf("clean harness violated:\n%s", strings.Join(v, "\n"))
	}
	if len(res.Races()) > 0 {
		t.Fatalf("clean harness raced:\n%s", race.FormatReports(res.Races()))
	}
}

// fingerprint renders everything determinism covers: schedule counts,
// total steps, and every finding with its schedule provenance and full
// race report.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedules=%d steps=%d stepLimited=%d findings=%d\n",
		res.Schedules, res.Steps, res.StepLimited, len(res.Findings))
	for _, f := range res.Findings {
		fmt.Fprintf(&b, "%s\n", f)
		if f.Report != nil {
			b.WriteString(f.Report.String())
		}
	}
	b.WriteString(race.FormatReports(res.Races()))
	return b.String()
}

// TestSweepDeterministicAcrossWorkers: the seed-to-schedule map is a
// pure function of the grid cell and findings are assembled in grid
// order with earliest-cell attribution, so the whole result — counts,
// findings, reports, provenance — is byte-identical at every -j.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	m, entries := portedHarness(t, harnessSpec())
	var want string
	for _, workers := range []int{1, 2, 8} {
		res, err := Sweep(m, Options{Entries: entries, Seeds: 12, Workers: workers})
		if err != nil {
			t.Fatalf("sweep (j=%d): %v", workers, err)
		}
		got := fingerprint(res)
		if want == "" {
			want = got
			if len(res.Findings) == 0 {
				t.Fatal("determinism test needs at least one finding")
			}
			continue
		}
		if got != want {
			t.Fatalf("result differs at j=%d:\n--- j=1\n%s\n--- j=%d\n%s", workers, want, workers, got)
		}
	}
}

// TestSweepSamplingSound: at any sampling fraction the engine reports
// only races the full detector also reports (sampling may only lose
// findings, never invent them), and the planted race survives modest
// fractions because the per-schedule salt re-draws the observed
// location subset every schedule.
func TestSweepSamplingSound(t *testing.T) {
	m, entries := portedHarness(t, harnessSpec())
	full, err := Sweep(m, Options{Entries: entries, Seeds: 16, Workers: 4})
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}
	fullKeys := make(map[string]bool)
	for _, r := range full.Races() {
		fullKeys[r.Key()] = true
	}
	for _, sample := range []float64{0.5, 0.25} {
		res, err := Sweep(m, Options{Entries: entries, Seeds: 16, Workers: 4, Sample: sample})
		if err != nil {
			t.Fatalf("sweep (sample=%g): %v", sample, err)
		}
		if res.Skipped == 0 {
			t.Errorf("sample=%g skipped nothing: sampler inert", sample)
		}
		for _, r := range res.Races() {
			if !fullKeys[r.Key()] {
				t.Errorf("sample=%g invented a race the full detector never saw:\n%s", sample, r)
			}
		}
	}
}

// TestReplayReproducesFinding: a finding's Schedule replays to the
// same race or the same violation — the seed is the whole reproduction
// recipe.
func TestReplayReproducesFinding(t *testing.T) {
	t.Run("race", func(t *testing.T) {
		m, entries := portedHarness(t, harnessSpec())
		opts := Options{Entries: entries, Seeds: 12, Workers: 4}
		res, err := Sweep(m, opts)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		var target *Finding
		for i := range res.Findings {
			if res.Findings[i].Kind == FindingRace && res.Findings[i].Report.Loc == gapLoc {
				target = &res.Findings[i]
				break
			}
		}
		if target == nil {
			t.Fatal("no race finding to replay")
		}
		_, det, err := Replay(m, opts, target.Schedule, false)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for _, r := range det.Reports() {
			if r.Key() == target.Report.Key() {
				return
			}
		}
		t.Fatalf("replay of %s did not reproduce race %s; got:\n%s",
			target.Schedule, target.Report.Key(), race.FormatReports(det.Reports()))
	})
	// Unported mp under WMM: the reader can see the flag before the
	// message, tripping the harness assertion. The violation line names
	// the schedule, and that schedule alone fails the same way again.
	t.Run("violation", func(t *testing.T) {
		p := corpus.Get("mp")
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		opts := Options{Model: memmodel.ModelWMM, Entries: p.MCEntries, Seeds: 4, Workers: 4}
		res, err := Sweep(m, opts)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		var target *Finding
		for i := range res.Findings {
			if res.Findings[i].Kind == FindingViolation {
				target = &res.Findings[i]
				break
			}
		}
		if target == nil {
			t.Fatal("no violation finding to replay")
		}
		if want := target.Schedule.String() + ": " + target.Msg; res.Violations()[0] != want {
			t.Errorf("violation line %q, want %q", res.Violations()[0], want)
		}
		vres, _, err := Replay(m, opts, target.Schedule, false)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if vres.Status != vm.StatusAssertFailed {
			t.Fatalf("replay of %s ended %s, want %s", target.Schedule, vres.Status, vm.StatusAssertFailed)
		}
		if got := fmt.Sprintf("%s: %s", vres.Status, vres.FailMsg); got != target.Msg {
			t.Fatalf("replay of %s failed with %q, want %q", target.Schedule, got, target.Msg)
		}
	})
}

// TestPooledVMReuse: each worker builds one VM and recycles it through
// Reset for the rest of its grid share.
func TestPooledVMReuse(t *testing.T) {
	m, entries := portedHarness(t, harnessSpec())
	res, err := Sweep(m, Options{Entries: entries, Seeds: 10, Workers: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.VMAllocs > 2 {
		t.Errorf("expected at most one VM per worker, got %d allocs", res.VMAllocs)
	}
	if res.VMResets == 0 {
		t.Error("no VM resets: pooling inert")
	}
	wantRuns := int64(res.Schedules)
	if res.VMAllocs+res.VMResets != wantRuns {
		t.Errorf("allocs(%d)+resets(%d) != schedules(%d)", res.VMAllocs, res.VMResets, wantRuns)
	}
}

// TestScreenSweepAllocs bounds what a sweep shaped like the weakener's
// stress screen (32 seeds per mode, every location observed, one
// worker) allocates on ported ck_spinlock_mcs: at most 400 KB, the least
// of three sweeps. Its module numbers over 4,100 cells while a schedule
// touches at most 15; per-cell tables sized by cell number allocate
// about 960 KB here.
func TestScreenSweepAllocs(t *testing.T) {
	p := corpus.Get("ck_spinlock_mcs")
	m, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := atomig.Port(m, atomig.DefaultOptions()); err != nil {
		t.Fatalf("port: %v", err)
	}
	opts := Options{Model: memmodel.ModelWMM, Entries: p.MCEntries, Seeds: 32, Sample: 1, Workers: 1}
	least := uint64(1 << 63)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Sweep(m, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if res.Schedules != 160 {
			t.Fatalf("swept %d schedules, want 160", res.Schedules)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a screen sweep allocates %.0f KB", float64(least)/1024)
	if least > 400<<10 {
		t.Errorf("a screen sweep allocates %.0f KB, want <= 400 KB", float64(least)/1024)
	}
}
