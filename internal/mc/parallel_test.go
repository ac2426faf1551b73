package mc

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memmodel"
	"repro/internal/obs"
)

// verdictFingerprint reduces a Result to the parts the determinism
// contract promises are worker-count-invariant on fully explored state
// spaces: the verdict, the distinct violation messages, and the race
// keys. Counterexample traces and visit-order statistics may differ
// across worker counts (see docs/MODEL-CHECKER.md).
func verdictFingerprint(res *Result) string {
	vios := append([]string(nil), res.Violations...)
	sort.Strings(vios)
	vios = dedupSorted(vios)
	return fmt.Sprintf("verdict=%s violations=%q races=%q", res.Verdict, vios, raceKeys(res))
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// determinismPrograms are the litmus programs of TestParallelDeterminism,
// also rows of TestEngineMatchesReference.
var determinismPrograms = []struct {
	name    string
	src     string
	entries []string
}{
	{"mp", mpSrc, []string{"reader", "writer"}},
	{"sb", `
int x; int y; int r0 = -1; int r1 = -1;
void t0(void) { x = 1; r0 = y; }
void t1(void) { y = 1; r1 = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(r0 + r1 != 0);
}
`, []string{"main_thread"}},
	{"corr", `
int x; int a = -1; int b = -1;
void t0(void) { x = 1; x = 2; }
void t1(void) { a = x; b = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(b >= a);
}
`, []string{"main_thread"}},
	{"seqlock", `
int seq;
int msg;
void writer(void) {
  seq = seq + 1;
  msg = 7;
  seq = seq + 1;
}
void reader(void) {
  int s;
  int data;
  do {
    s = seq;
    data = msg;
  } while (s % 2 != 0 || s != seq);
  if (s == 2) {
    assert(data == 7);
  }
}
`, []string{"reader", "writer"}},
}

// TestParallelDeterminism: across worker counts 1, 2 and 8 every
// litmus program yields the verdict, violation set and race-report key
// set of the sequential reference explorer (referenceCheck), in both
// plain and race-detecting mode, and one worker explores exactly the
// reference's executions.
func TestParallelDeterminism(t *testing.T) {
	models := []memmodel.Model{memmodel.ModelTSO, memmodel.ModelWMM}
	for _, p := range determinismPrograms {
		m := compile(t, p.src)
		for _, model := range models {
			for _, races := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/races=%v", p.name, model, races)
				t.Run(name, func(t *testing.T) {
					base := Options{
						Model: model, Entries: p.entries,
						MaxExecutions: 500_000, TimeBudget: time.Minute,
						DetectRaces: races,
					}
					seq, err := referenceCheck(m, base)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					if seq.Verdict == VerdictUnknown {
						t.Fatalf("reference exploration did not finish: %s", seq.Reason)
					}
					want := verdictFingerprint(seq)
					for _, j := range []int{1, 2, 8} {
						opts := base
						opts.Workers = j
						res, err := Check(m, opts)
						if err != nil {
							t.Fatalf("-j %d Check: %v", j, err)
						}
						if res.Workers != j {
							t.Errorf("-j %d: Result.Workers = %d", j, res.Workers)
						}
						if got := verdictFingerprint(res); got != want {
							t.Errorf("-j %d fingerprint drift:\n got %s\nwant %s", j, got, want)
						}
						// A single worker never splits, so it explores
						// exactly the reference's depth-first search.
						if j == 1 && res.Executions != seq.Executions {
							t.Errorf("-j 1 executions = %d, reference = %d", res.Executions, seq.Executions)
						}
					}
				})
			}
		}
	}
}

// TestParallelViolationOrderStable: violation report order must be
// byte-identical across worker counts, not merely equal as sets.
func TestParallelViolationOrderStable(t *testing.T) {
	m := compile(t, `
int x; int y; int r0 = -1; int r1 = -1;
void t0(void) { x = 1; r0 = y; }
void t1(void) { y = 1; r1 = x; }
void main_thread(void) {
  spawn(t0); spawn(t1); join();
  assert(r0 + r1 != 0);
  assert(r0 == 9 || r1 != -7 || x == 2);
}
`)
	var want []string
	for _, j := range []int{1, 2, 4, 8} {
		res, err := Check(m, Options{
			Model: memmodel.ModelWMM, Entries: []string{"main_thread"},
			MaxExecutions: 500_000, TimeBudget: time.Minute,
			Workers: j,
		})
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if want == nil {
			want = res.Violations
			continue
		}
		if len(res.Violations) != len(want) {
			t.Fatalf("-j %d: %d violations, want %d", j, len(res.Violations), len(want))
		}
		for i := range want {
			if res.Violations[i] != want[i] {
				t.Errorf("-j %d violation[%d] = %q, want %q", j, i, res.Violations[i], want[i])
			}
		}
	}
}

// TestResumeTokenReusable is the aliasing regression test: Check used
// to store its live visited map into the returned token by reference,
// so consuming a token once corrupted it for every later use. Resuming
// the same token twice must now yield identical results.
func TestResumeTokenReusable(t *testing.T) {
	m := compile(t, mpSrc)
	first, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
		MaxExecutions: 5, TimeBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Resume == nil {
		t.Fatal("tiny execution budget did not produce a resume token")
	}
	token := first.Resume
	resume := func() *Result {
		res, err := Check(m, Options{
			Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
			TimeBudget: time.Minute, Resume: token,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := resume(), resume()
	if a.Verdict != b.Verdict || a.Executions != b.Executions ||
		a.Pruned != b.Pruned || len(a.Violations) != len(b.Violations) {
		t.Errorf("resuming the same token twice diverged:\n first: %s %d execs %d pruned %d violations\nsecond: %s %d execs %d pruned %d violations",
			a.Verdict, a.Executions, a.Pruned, len(a.Violations),
			b.Verdict, b.Executions, b.Pruned, len(b.Violations))
	}
}

// TestParallelResume: an interrupted parallel run hands back one token
// per remaining frontier fragment; feeding them all back through
// Options.Resume finishes the exploration with the uninterrupted
// verdict.
func TestParallelResume(t *testing.T) {
	m := compile(t, mpSrc)
	entries := []string{"reader", "writer"}
	full, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: entries,
		MaxExecutions: 500_000, TimeBudget: time.Minute, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Verdict != VerdictFail {
		t.Fatalf("reference verdict %s, want %s", full.Verdict, VerdictFail)
	}

	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: entries,
		MaxExecutions: 10, TimeBudget: time.Minute, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for res.Verdict == VerdictUnknown {
		if len(res.Resume) == 0 {
			t.Fatalf("unknown verdict (%s) without resume tokens", res.Reason)
		}
		if rounds++; rounds > 1000 {
			t.Fatal("parallel resume did not converge")
		}
		prev := res.Executions
		res, err = Check(m, Options{
			Model: memmodel.ModelWMM, Entries: entries,
			MaxExecutions: prev + 10, TimeBudget: time.Minute, Workers: 2,
			Resume: res.Resume,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := verdictFingerprint(res), verdictFingerprint(full); got != want {
		t.Errorf("resumed fingerprint drift:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeResumeV1: the pre-frontier-split mcr1 token format (no
// floor, no per-choice ceilings) is no longer read. A hand-built mcr1
// token is rejected with the missing-header error, and an mcr2 round
// trip keeps the floor and the ceilings.
func TestDecodeResumeV1(t *testing.T) {
	buf := []byte("mcr1")
	buf = binary.AppendUvarint(buf, 3) // executions
	buf = binary.AppendUvarint(buf, 1) // pruned
	buf = binary.AppendUvarint(buf, 0) // truncated
	buf = binary.AppendUvarint(buf, 2) // len(trace)
	for _, c := range []choice{{options: 3, taken: 1}, {options: 2, taken: 0}} {
		buf = binary.AppendUvarint(buf, uint64(c.options))
		buf = binary.AppendUvarint(buf, uint64(c.taken))
	}
	_, err := DecodeResume(base64.RawURLEncoding.EncodeToString(buf))
	if err == nil || !strings.Contains(err.Error(), `missing "mcr2" header`) {
		t.Fatalf("DecodeResume(mcr1) err = %v, want the missing-header rejection", err)
	}

	tok := &ResumeToken{
		trace:      []choice{{options: 3, taken: 1, ceil: 2}, {options: 2, taken: 0}},
		floor:      1,
		executions: 3,
		pruned:     1,
	}
	back, err := DecodeResume(tok.Encode())
	if err != nil {
		t.Fatalf("DecodeResume(mcr2): %v", err)
	}
	if back.floor != 1 || back.trace[0].ceil != 2 || back.executions != 3 || back.pruned != 1 {
		t.Fatalf("mcr2 round trip lost frontier metadata: %+v", back)
	}
	if got := back.Frontier(); got != 1 {
		t.Fatalf("mcr2 Frontier = %d, want 1", got)
	}
}

// TestShardMap covers the lock-striped visited cache: insert semantics,
// flatten, and racing inserts of overlapping hash sets.
func TestShardMap(t *testing.T) {
	s := newShardMap(4, obs.NewRegistry().Counter("mc.shard_locks_contended"))
	if len(s.shards)&(len(s.shards)-1) != 0 {
		t.Fatalf("shard count %d not a power of two", len(s.shards))
	}
	if !s.insert(42) {
		t.Error("first insert reported duplicate")
	}
	if s.insert(42) {
		t.Error("second insert reported new")
	}
	if s.size() != 1 {
		t.Errorf("size = %d, want 1", s.size())
	}

	// Hashes with identical low bits land in different shards (selection
	// uses the high bits).
	const workers = 8
	s = newShardMap(workers, obs.NewRegistry().Counter("mc.shard_locks_contended"))
	var wg sync.WaitGroup
	newCount := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				// Every worker inserts the same mixed hash set, so
				// exactly 2000 inserts in total may report new.
				h := memmodel.Mix64(i)
				if s.insert(h) {
					newCount[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range newCount {
		total += n
	}
	if total != 2000 {
		t.Errorf("%d inserts reported new, want exactly 2000", total)
	}
	if s.size() != 2000 {
		t.Errorf("size = %d, want 2000", s.size())
	}
	if flat := s.flatten(); len(flat) != 2000 {
		t.Errorf("flatten holds %d states, want 2000", len(flat))
	}
}

// TestSequentialDispatch: Workers 0 means one worker of the one engine
// (Workers reported as 1), whose visited cache takes no locks and whose
// single VM is recycled for every execution.
func TestSequentialDispatch(t *testing.T) {
	m := compile(t, mpSrc)
	res, err := Check(m, Options{
		Model: memmodel.ModelWMM, Entries: []string{"reader", "writer"},
		MaxExecutions: 500_000, TimeBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("sequential Result.Workers = %d, want 1", res.Workers)
	}
	if res.ShardContention != 0 {
		t.Errorf("sequential ShardContention = %d, want 0", res.ShardContention)
	}
	if res.VMAllocs != 1 {
		t.Errorf("sequential VMAllocs = %d, want 1 (VM reuse)", res.VMAllocs)
	}
	if res.VMResets != int64(res.Executions-1) {
		t.Errorf("sequential VMResets = %d, want executions-1 = %d", res.VMResets, res.Executions-1)
	}
}
