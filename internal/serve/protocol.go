// The wire protocol: one JSON object per line, request in, response
// out. Responses carry the request's id and may be written out of
// order — clients correlate by id. docs/SERVE.md is the protocol
// reference; this file is its source of truth.
package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/atomig"
	"repro/internal/weaken"
)

// Request is one line of client input.
type Request struct {
	// ID correlates the response; opaque to the server.
	ID string `json:"id"`
	// Op selects the operation: load, edit, port, dump, explain-races,
	// verify, stress, optimize, stats, health, cancel, shutdown.
	Op string `json:"op"`

	// Session names the module session (default "default"): load
	// creates or replaces it, every other module op addresses it.
	Session string `json:"session,omitempty"`

	// load: module source, inline or from a file. Name is the compile
	// path (its suffix selects MiniC vs AIR unless Lang overrides).
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Path   string `json:"path,omitempty"`
	Lang   string `json:"lang,omitempty"` // "c" or "air"

	// edit: function-level deltas against the session's module.
	// Replace holds AIR function definitions parsed against the
	// session's structs and globals; Remove holds function names. The
	// batch applies transactionally: any failure leaves the session
	// unchanged.
	Replace []string `json:"replace,omitempty"`
	Remove  []string `json:"remove,omitempty"`

	// port: Emit returns the ported module text in the response; Out
	// writes it to a file instead (for large modules).
	Emit bool   `json:"emit,omitempty"`
	Out  string `json:"out,omitempty"`

	// explain-races / verify / optimize: thread entry functions.
	Entries []string `json:"entries,omitempty"`
	// verify / optimize: exploration budgets (0 = engine defaults; for
	// optimize they bound each candidate re-verification).
	MaxExecs     int   `json:"max_execs,omitempty"`
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`

	// stress: schedules per scheduler mode (0 = 256) and the detector's
	// location-sampling fraction (0 = observe everything); see
	// docs/STRESS.md. With optimize they are the stress oracle's budget
	// and apply only when Oracle is "stress".
	Seeds  int     `json:"seeds,omitempty"`
	Sample float64 `json:"sample,omitempty"`

	// optimize: static cost-model architecture ("" = weaken.DefaultArch)
	// and the race-detection opt-out (detection is on by default; see
	// docs/WEAKENING.md for when to disable it). Oracle selects the
	// verification oracle: "" or "exhaustive", "stress"
	// (docs/STRESS.md).
	Arch    string `json:"arch,omitempty"`
	NoRaces bool   `json:"no_races,omitempty"`
	Oracle  string `json:"oracle,omitempty"`

	// DeadlineMS overrides the server's per-request deadline (bounded
	// above by it — a client cannot extend past the server cap).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// cancel: the id of the in-flight request to cancel.
	Target string `json:"target,omitempty"`
}

// Error kinds, machine-matchable by clients.
const (
	// ErrBadRequest: malformed JSON, unknown op, invalid arguments,
	// rejected delta. The request was never started.
	ErrBadRequest = "bad_request"
	// ErrNoModule: the addressed session has no loaded module.
	ErrNoModule = "no_module"
	// ErrOverloaded: admission control shed the request; retry later.
	ErrOverloaded = "overloaded"
	// ErrShutdown: the server is draining and accepts no new work.
	ErrShutdown = "shutting_down"
	// ErrDeadline: the request exceeded its deadline (or wedged past
	// the watchdog grace) and was canceled.
	ErrDeadline = "deadline"
	// ErrCanceled: a cancel op (or connection teardown) stopped it.
	ErrCanceled = "canceled"
	// ErrInternal: a contained panic or engine failure; the daemon
	// stays up and the session's detection cache has been evicted.
	ErrInternal = "internal"
)

// Response is one line of server output.
type Response struct {
	ID string `json:"id"`
	OK bool   `json:"ok"`
	// ErrKind is one of the Err* constants when OK is false.
	ErrKind string `json:"error_kind,omitempty"`
	Error   string `json:"error,omitempty"`

	// load / edit / port
	Module string `json:"module,omitempty"`
	Funcs  int    `json:"funcs,omitempty"`

	// port
	Report *atomig.Report `json:"report,omitempty"`
	// Text carries emitted module IR (port -emit, dump) or the
	// explain-races rendering.
	Text string `json:"text,omitempty"`

	// explain-races: Violations are stress.Result.Violations lines, each
	// led by its replayable schedule (mode#ordinal and seed).
	Races      int      `json:"races,omitempty"`
	Executions int      `json:"executions,omitempty"`
	Violations []string `json:"violations,omitempty"`

	// verify / optimize
	Verdict string `json:"verdict,omitempty"`
	Reason  string `json:"reason,omitempty"`

	// optimize: the full weakening result (cost before/after, accepted
	// decisions with provenance), and whether the response replayed the
	// session's memoized result — same options, unedited module — rather
	// than re-running the checker.
	Optimize *weaken.Result `json:"optimize,omitempty"`
	Replayed bool           `json:"replayed,omitempty"`

	// stress: the sweep summary; Races/Executions/Violations above are
	// populated too (Executions counts schedules).
	Stress *StressInfo `json:"stress,omitempty"`

	// stats / health
	Stats *Stats `json:"stats,omitempty"`
}

// StressInfo is the stress op's sweep summary: throughput, sampling
// effect, and every finding with its replayable schedule provenance.
type StressInfo struct {
	Schedules   int     `json:"schedules"`
	Steps       int64   `json:"steps"`
	StepLimited int     `json:"step_limited,omitempty"`
	Forwarded   int64   `json:"forwarded"`
	Skipped     int64   `json:"skipped,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec"`
	// Findings renders each race/violation with the mode, ordinal and
	// seed that exposed it — the whole reproduction recipe.
	Findings []string `json:"findings,omitempty"`
}

// Stats is the health/stats payload: a consistent snapshot of the
// serve.* counters plus session inventory.
type Stats struct {
	Healthy bool `json:"healthy"`
	// Status is the /healthz verdict: ok, degraded, or draining.
	Status          string   `json:"status,omitempty"`
	Draining        bool     `json:"draining"`
	InFlight        int64    `json:"in_flight"`
	QueueDepth      int      `json:"queue_depth"`
	Requests        int64    `json:"requests"`
	Failed          int64    `json:"failed"`
	Overloaded      int64    `json:"overloaded"`
	Canceled        int64    `json:"canceled"`
	Deadlined       int64    `json:"deadlined"`
	PanicsContained int64    `json:"panics_contained"`
	WatchdogFired   int64    `json:"watchdog_fired"`
	CacheHits       int64    `json:"cache_hits"`
	CacheMisses     int64    `json:"cache_misses"`
	CacheEntries    int      `json:"cache_entries"`
	Sessions        []string `json:"sessions,omitempty"`
}

// errResp builds a failure response.
func errResp(kind, format string, args ...any) *Response {
	return &Response{ErrKind: kind, Error: fmt.Sprintf(format, args...)}
}

// decodeRequest parses one protocol line.
func decodeRequest(line []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, err
	}
	if req.Op == "" {
		return nil, fmt.Errorf("missing op")
	}
	return &req, nil
}
