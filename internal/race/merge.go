package race

import "sort"

// Key returns the canonical identity of a report: the unordered pair of
// access sites, the same key the detector deduplicates on. Two
// detectors observing different executions of the same program report
// the same race under the same key.
func (r *Report) Key() string {
	k1, k2 := SiteString(r.Prior.Site), SiteString(r.Current.Site)
	if k2 < k1 {
		k1, k2 = k2, k1
	}
	return k1 + "|" + k2
}

// ExecNewReports returns the reports first recorded since the last
// BeginExec — the findings attributable to the current execution. The
// parallel model checker uses it to tie each new race to the choice
// trace that exposed it.
func (d *Detector) ExecNewReports() []*Report { return d.reports[d.execStart:] }

// Adopt replaces the detector's findings with an externally merged
// list, rebuilding the dedup index so the detector keeps deduplicating
// correctly if it is reused for further sweeps. stress.Sweep uses it to
// publish its merged, key-sorted reports through a regular detector.
func (d *Detector) Adopt(reports []*Report) {
	d.reports = append(d.reports[:0], reports...)
	d.seen = make(map[string]*Report, len(reports))
	for _, r := range reports {
		d.seen[r.Key()] = r
	}
	d.execStart = len(d.reports)
}

// MergeReports merges report lists from independent detectors (one per
// model-checker worker): duplicates collapse with summed occurrence
// counts, keeping the first list's representative, and the result is
// sorted by Key so the merged order is deterministic regardless of
// which detector found what first. max caps the merged list (0 = no
// cap).
func MergeReports(max int, lists ...[]*Report) []*Report {
	seen := make(map[string]*Report)
	keys := make([]string, 0, 16)
	for _, l := range lists {
		for _, r := range l {
			k := r.Key()
			if ex := seen[k]; ex != nil {
				ex.Count += r.Count
				continue
			}
			c := *r
			seen[k] = &c
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*Report, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
