package mc

import "repro/internal/obs"

// The checker counts its own work: every worker keeps a plain tally,
// the merge adds the tallies (and a resumed check's carried counts)
// into the Result, and publish writes the check's totals to the
// caller's provider once, when the check returns. The registry is
// never read back, so checks sharing a provider cannot see each
// other's work. Only the instruments describing work in flight stay
// live: the mc.workers_active gauge, the mc.fragment_executions
// histogram and the worker spans.

// tally is one worker's count of its own work.
type tally struct {
	execs, pruned, truncated int
	vmResets, vmAllocs       int64
	claimed, donated         int64
	backtracks               int64
}

// add accumulates u into t.
func (t *tally) add(u tally) {
	t.execs += u.execs
	t.pruned += u.pruned
	t.truncated += u.truncated
	t.vmResets += u.vmResets
	t.vmAllocs += u.vmAllocs
	t.claimed += u.claimed
	t.donated += u.donated
	t.backtracks += u.backtracks
}

// publish adds one check's totals to p's mc.* counters; nil-safe.
func publish(p *obs.Provider, res *Result, t tally) {
	p.Counter("mc.executions_explored").Add(int64(res.Executions))
	p.Counter("mc.executions_pruned").Add(int64(res.Pruned))
	p.Counter("mc.executions_truncated").Add(int64(res.Truncated))
	p.Counter("mc.states_recorded").Add(int64(res.States))
	p.Counter("mc.vms_reset").Add(res.VMResets)
	p.Counter("mc.vms_allocated").Add(res.VMAllocs)
	p.Counter("mc.shard_locks_contended").Add(res.ShardContention)
	p.Counter("mc.fragments_claimed").Add(t.claimed)
	p.Counter("mc.fragments_donated").Add(t.donated)
	p.Counter("mc.backtracks_taken").Add(t.backtracks)
}
